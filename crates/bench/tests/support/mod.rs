//! What the golden suites share: the one reader (and, under
//! `UPDATE_GOLDENS`, writer) of the pins under `tests/golden/`.

use std::path::PathBuf;

/// The pinned golden `name` under `tests/golden/`. With `UPDATE_GOLDENS`
/// set, `fresh` is written there first, so a regenerating run compares the
/// fresh artifact against itself.
///
/// # Panics
///
/// Panics when the golden is missing: run with `UPDATE_GOLDENS=1`.
pub fn golden(name: &str, fresh: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join(name);
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(&dir).expect("golden dir");
        std::fs::write(&path, fresh).expect("write golden");
    }
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDENS=1"))
}
