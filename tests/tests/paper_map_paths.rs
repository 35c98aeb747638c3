//! Every crate-rooted path that `docs/PAPER_MAP.md` cites in backticks
//! (`ensemfdet::aggregate::VoteTally`, `ensemfdet_sampling::{res, ons}`,
//! …) names a module or item defined in the tree, so the map cannot drift
//! from the code it points into.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the tests package sits in the repository root")
        .to_path_buf()
}

/// Library name (`ensemfdet_graph`) → `src/` directory, for every library
/// crate under `crates/`.
fn workspace_crates() -> BTreeMap<String, PathBuf> {
    let mut crates = BTreeMap::new();
    for entry in fs::read_dir(repo_root().join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let (Ok(manifest), true) = (
            fs::read_to_string(dir.join("Cargo.toml")),
            dir.join("src/lib.rs").exists(),
        ) else {
            continue;
        };
        let name = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("a package name");
        crates.insert(name.replace('-', "_"), dir.join("src"));
    }
    crates
}

/// The backticked spans of `text` that start with one of `crates`, as
/// segment lists: `a::{b, c}` yields `a::b` and `a::c`, and a trailing
/// call such as `(T)` or `()` is dropped.
fn cited_paths(text: &str, crates: &BTreeMap<String, PathBuf>) -> Vec<Vec<String>> {
    let mut paths = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        let span = span.split('(').next().unwrap().trim();
        let Some(root) = span.split("::").next() else {
            continue;
        };
        if !span.contains("::") || !crates.contains_key(root) {
            continue;
        }
        let (head, group) = match span.split_once("::{") {
            Some((head, group)) => (head, group.trim_end_matches('}')),
            None => (span, ""),
        };
        let head: Vec<String> = head.split("::").map(str::to_string).collect();
        if group.is_empty() {
            paths.push(head);
        } else {
            for member in group.split(',') {
                let mut path = head.clone();
                path.push(member.trim().to_string());
                paths.push(path);
            }
        }
    }
    paths
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `text` has `word` as a whole identifier right after `prefix`.
fn has_after(text: &str, prefix: &str, word: &str) -> bool {
    let needle = format!("{prefix}{word}");
    text.match_indices(&needle).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + needle.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// Whether `text` defines `name` as a function, type, constant or module.
fn defines(text: &str, name: &str) -> bool {
    [
        "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ", "mod ",
    ]
    .iter()
    .any(|kw| has_after(text, kw, name))
}

/// Whether a `pub use` statement of `text` names `name`.
fn reexports(text: &str, name: &str) -> bool {
    text.split("pub use ")
        .skip(1)
        .any(|stmt| has_after(stmt.split(';').next().unwrap(), "", name))
}

/// Whether `text` defines `enum name` with a variant `variant` (a line of
/// the enum's body that starts with it).
fn has_variant(text: &str, name: &str, variant: &str) -> bool {
    let Some(at) = text.find(&format!("enum {name} ")) else {
        return false;
    };
    let body = &text[at..];
    let end = body.find("\n}").unwrap_or(body.len());
    body[..end].lines().any(|l| {
        l.trim_start()
            .strip_prefix(variant)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with([',', '(', ' ', '{']))
    })
}

/// All Rust source under `dir`, concatenated.
fn crate_source(dir: &Path) -> String {
    let mut text = String::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            text.push_str(&crate_source(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            text.push_str(&fs::read_to_string(&path).unwrap());
        }
    }
    text
}

/// Resolves the segments after the crate name against the crate rooted at
/// `src`: leading segments name modules, declared with `mod` and backed by
/// a file; the next is an item defined in (or re-exported from) the last
/// module; any further segments are functions defined in the crate or,
/// after an enum, its variants.
fn resolve(src: &Path, segments: &[String]) -> Result<(), String> {
    let (mut file, mut dir) = (src.join("lib.rs"), src.to_path_buf());
    let mut rest = segments;
    while let Some((seg, tail)) = rest.split_first() {
        let text = fs::read_to_string(&file).unwrap();
        if !has_after(&text, "mod ", seg) {
            break;
        }
        let Some(next) = [dir.join(format!("{seg}.rs")), dir.join(seg).join("mod.rs")]
            .into_iter()
            .find(|p| p.exists())
        else {
            return Err(format!("module `{seg}` has no file"));
        };
        file = next;
        dir = dir.join(seg);
        rest = tail;
    }
    let Some((item, members)) = rest.split_first() else {
        return Ok(());
    };
    let module = fs::read_to_string(&file).unwrap();
    let all = crate_source(src);
    if !(defines(&module, item) || (reexports(&module, item) && defines(&all, item))) {
        return Err(format!("`{item}` is not defined in {}", file.display()));
    }
    let mut owner = item;
    for m in members {
        if !defines(&all, m) && !has_variant(&all, owner, m) {
            return Err(format!("`{owner}` has no member `{m}`"));
        }
        owner = m;
    }
    Ok(())
}

#[test]
fn every_crate_path_in_the_paper_map_resolves() {
    let crates = workspace_crates();
    let map = fs::read_to_string(repo_root().join("docs/PAPER_MAP.md")).unwrap();
    let paths = cited_paths(&map, &crates);
    assert!(paths.len() >= 15, "only {} crate paths found", paths.len());
    let broken: Vec<String> = paths
        .iter()
        .filter_map(|p| {
            resolve(&crates[&p[0]], &p[1..])
                .err()
                .map(|why| format!("{}: {why}", p.join("::")))
        })
        .collect();
    assert!(
        broken.is_empty(),
        "unresolved paths in docs/PAPER_MAP.md:\n{}",
        broken.join("\n")
    );
}

#[test]
fn the_resolver_rejects_paths_that_do_not_exist() {
    let crates = workspace_crates();
    let core = &crates["ensemfdet"];
    let path = |s: &str| s.split("::").map(str::to_string).collect::<Vec<_>>();
    assert!(resolve(core, &path("aggregate::VoteTally::detected_users")).is_ok());
    assert!(resolve(core, &path("aggregate::NoSuchTally")).is_err());
    assert!(resolve(core, &path("aggregate::VoteTally::no_such_method")).is_err());
    assert!(resolve(core, &path("fdet::Truncation::KeepAll")).is_ok());
    assert!(resolve(core, &path("fdet::Truncation::None")).is_err());
    let cited = cited_paths(
        "`ensemfdet_sampling::{res, ons}` and `f(ensemfdet::x)`",
        &crates,
    );
    assert_eq!(
        cited,
        vec![
            path("ensemfdet_sampling::res"),
            path("ensemfdet_sampling::ons")
        ]
    );
}
