// Fixture: std-hashmap rule. Four live violations (import, field, and the
// SipHash hasher and its builder), one Fx negative, one `hash_map::Entry`
// path negative, one raw-identifier line the lexer must not misread.

use std::collections::HashMap;

struct Cache {
    entries: HashMap<u64, u64>,
    fast: FxHashMap<u64, u64>,
}

fn entry_api(cache: &mut Cache) {
    match cache.fast.entry(1) {
        std::collections::hash_map::Entry::Occupied(_) => {}
        std::collections::hash_map::Entry::Vacant(_) => {}
    }
    let r#type = 1u64;
    let _ = r#type;
}

fn pick_shard(key: u64, fast: FxHasher) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let _builder = std::collections::hash_map::RandomState::new();
    key.hash(&mut hasher);
    hasher.finish() ^ fast.finish()
}
