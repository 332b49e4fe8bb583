//! Rule scoping: which files each rule family applies to.
//!
//! Paths are workspace-relative with `/` separators and matched by simple
//! prefix (directories) or suffix (single files), so the same `Config`
//! works from the repo root and from fixture tests that point the scopes at
//! synthetic paths.

/// Where each rule looks, plus the watched-enum and counter vocabulary of
/// the accounting rule.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directory prefixes whose non-test code must be panic-free
    /// (`unwrap`/`expect`/panicking macros).
    pub panic_scope: Vec<String>,
    /// Directory prefixes whose non-test code may not index slices without
    /// `get` (same default scope as `panic_scope`, separable for fixtures).
    pub index_scope: Vec<String>,
    /// File suffixes where every `match` over a watched enum must be
    /// wildcard-free and complete.
    pub accounting_files: Vec<String>,
    /// Enum names whose matches are checked for exhaustiveness.
    pub watched_enums: Vec<String>,
    /// Counter field names whose increments are restricted.
    pub counters: Vec<String>,
    /// File suffixes allowed to increment the atomic lifecycle counters.
    pub counter_files: Vec<String>,
    /// File suffixes allowed to advance the queue's `pushed` acceptance
    /// counter.
    pub accepted_counter_files: Vec<String>,
    /// File suffixes subject to the lock-discipline rule.
    pub lock_files: Vec<String>,
}

impl Default for Config {
    /// The repo's real invariants, matching the workspace layout.
    fn default() -> Self {
        let panic_free =
            vec!["crates/serve/src/".to_owned(), "crates/core/src/".to_owned(), "crates/net/src/".to_owned()];
        Config {
            panic_scope: panic_free.clone(),
            index_scope: panic_free,
            accounting_files: vec![
                "crates/serve/src/server.rs".to_owned(),
                "crates/serve/src/stats.rs".to_owned(),
                "crates/serve/src/cache.rs".to_owned(),
                "crates/serve/src/error.rs".to_owned(),
                "crates/query/src/estimate.rs".to_owned(),
                "crates/net/src/error.rs".to_owned(),
            ],
            watched_enums: vec!["ServeError".to_owned(), "Provenance".to_owned()],
            counters: vec![
                "accepted".to_owned(),
                "served".to_owned(),
                "failed".to_owned(),
                "shed".to_owned(),
                "cancelled".to_owned(),
                "rejected".to_owned(),
            ],
            counter_files: vec!["crates/serve/src/server.rs".to_owned()],
            accepted_counter_files: vec!["crates/serve/src/queue.rs".to_owned()],
            lock_files: vec!["crates/serve/src/queue.rs".to_owned()],
        }
    }
}

impl Config {
    pub fn in_panic_scope(&self, path: &str) -> bool {
        self.panic_scope.iter().any(|p| path.starts_with(p))
    }

    pub fn in_index_scope(&self, path: &str) -> bool {
        self.index_scope.iter().any(|p| path.starts_with(p))
    }

    pub fn is_accounting_file(&self, path: &str) -> bool {
        self.accounting_files.iter().any(|f| path.ends_with(f))
    }

    pub fn is_counter_file(&self, path: &str) -> bool {
        self.counter_files.iter().any(|f| path.ends_with(f))
    }

    pub fn is_accepted_counter_file(&self, path: &str) -> bool {
        self.accepted_counter_files.iter().any(|f| path.ends_with(f))
    }

    pub fn is_lock_file(&self, path: &str) -> bool {
        self.lock_files.iter().any(|f| path.ends_with(f))
    }
}
