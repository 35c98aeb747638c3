//! Result persistence for the experiment binaries.

use serde::Serialize;
use std::path::PathBuf;

/// `results/` at the workspace root (created on demand), overridable via
/// `ENSEMFDET_RESULTS`.
pub fn results_dir() -> PathBuf {
    std::env::var("ENSEMFDET_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Writes `<results>/<name>.json` and reports the path on stdout.
pub fn save<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match ensemfdet_eval::write_json(value, &path) {
        Ok(()) => println!("\n[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory for one test's files, named after the test and
    /// the process id, so parallel tests never share a fixture file.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ensemfdet_bench_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_writes_json() {
        let dir = test_dir("save_writes_json");
        std::env::set_var("ENSEMFDET_RESULTS", &dir);
        save("smoke", &serde_json::json!({"x": 1}));
        let content = std::fs::read_to_string(dir.join("smoke.json")).unwrap();
        assert!(content.contains("\"x\": 1"));
        std::env::remove_var("ENSEMFDET_RESULTS");
        std::fs::remove_dir_all(&dir).ok();
    }
}
