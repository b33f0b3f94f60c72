//! The single `unsafe` boundary of the storage layer.
//!
//! A `PEG2` image's sections are byte-for-byte [`CsrGraph`]'s four
//! vectors (see [`crate::io_binary`]). The loader reads each section
//! straight into a `Vec<usize>` or `Vec<u32>` and the writer writes
//! each vector out as it is, so both need a byte view of an integer
//! slice. That view is a cast of the kind the repo's lint gate confines
//! to allowlisted files, and this module is that file for the graph
//! crate: one cast, in a shared ([`bytes_of`]) and a mutable
//! ([`bytes_of_mut`]) form, so the rest of `io_binary.rs` stays safe
//! code.
//!
//! [`CsrGraph`]: crate::CsrGraph
//!
//! # Soundness argument
//!
//! The cast is sound for every [`Word`], the two element types a CSR
//! array holds (`u32`, `usize`):
//!
//! * **Alignment** — the target is `u8`, whose alignment is 1, so any
//!   element pointer is a valid byte pointer.
//! * **Size** — the byte length is `size_of_val` of a live slice: its
//!   exact extent, which cannot overflow.
//! * **Validity** — `u32`/`usize` have no padding, so every byte of the
//!   slice is initialized, and no invalid bit patterns, so any bytes
//!   written through the mutable view form valid values.
//! * **Aliasing** — the view reborrows its input for exactly the
//!   input's lifetime, shared for shared and exclusive for exclusive.
//!
//! The on-disk format is little-endian with `u64` offsets. Reading it
//! through a byte view of host integers is only correct on 64-bit
//! little-endian targets, which the compile-time assertions below pin
//! (the supported platforms are all 64-bit LE; another port would
//! decode via `from_le_bytes` instead).

// PEG2 stores integers little-endian and the byte view reads them in
// host order; refuse to compile where that would misread.
const _: () = assert!(
    cfg!(target_endian = "little"),
    "the storage layer's byte view requires a little-endian target"
);

// PEG2 offsets are u64 on disk and read straight into `Vec<usize>`.
const _: () = assert!(
    cfg!(target_pointer_width = "64"),
    "the storage layer's byte view requires 64-bit usize offsets"
);

/// An integer type with no padding and no invalid bit patterns: the
/// element types of [`CsrGraph`](crate::CsrGraph)'s vectors.
pub(crate) trait Word: Copy + Default {}

impl Word for u32 {}
impl Word for usize {}

/// The bytes of an integer slice in host (little-endian) order, for
/// writing and checksumming a section.
#[inline]
pub(crate) fn bytes_of<T: Word>(values: &[T]) -> &[u8] {
    // SAFETY: see the module's soundness argument: `u8` needs no
    // alignment, `size_of_val` is the slice's exact byte extent, and
    // `T: Word` has no padding, so all of it is initialized; the view
    // shares the input's borrow.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// The mutable bytes of an integer slice, for reading a section
/// straight into its vector.
#[inline]
pub(crate) fn bytes_of_mut<T: Word>(values: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(values);
    // SAFETY: as for `bytes_of`; in addition `T: Word` has no invalid
    // bit patterns, so any bytes written leave valid values, and the
    // `&mut` borrow keeps the view the only access while it lives.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u8>(), len) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_views_cover_exactly_the_elements() {
        for len in [0usize, 1, 7, 4097] {
            assert_eq!(bytes_of(&vec![0u32; len]).len(), len * 4);
            assert_eq!(bytes_of_mut(&mut vec![0usize; len]).len(), len * 8);
        }
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut offsets = vec![0usize; 2];
        bytes_of_mut(&mut offsets).copy_from_slice(&[
            1, 0, 0, 0, 0, 0, 0, 0, //
            0, 1, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(offsets, [1, 256]);
        assert_eq!(bytes_of(&offsets), &bytes_of_mut(&mut offsets.clone())[..]);
        let mut ids = vec![0u32; 2];
        bytes_of_mut(&mut ids).copy_from_slice(&[2, 0, 0, 0, 3, 0, 0, 0]);
        assert_eq!(ids, [2, 3]);
        assert_eq!(bytes_of(&ids), [2, 0, 0, 0, 3, 0, 0, 0]);
    }
}
