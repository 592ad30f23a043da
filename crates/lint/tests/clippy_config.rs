//! Pins the rules that moved from token lint to clippy configuration.
//!
//! D1 (`HashMap`/`HashSet`) and D2 (`Instant`/`SystemTime`) are
//! `disallowed-types` in the repo's `clippy.toml`; P1 (the panic family)
//! is denied in the workspace `[lints]` table for `dist` and by an inner
//! `#![deny]` in `core::{world, model, replication}`. This test runs clippy
//! over `tests/fixtures/clippy`, a standalone crate that compiles the three
//! rule fixtures, and checks that every site in them is rejected. It also
//! checks that the P1 scopes still deny every lint the fixture crate does.

use std::path::Path;
use std::process::Command;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// `(fixture file, 1-based line)` of every non-comment line in `fixture`
/// that mentions one of `needles`: the sites clippy must name.
fn sites(fixture: &str, needles: &[&str]) -> Vec<(String, usize)> {
    read(&format!("{MANIFEST_DIR}/tests/fixtures/{fixture}"))
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .filter(|(_, l)| needles.iter().any(|n| l.contains(n)))
        .map(|(i, _)| (fixture.to_string(), i + 1))
        .collect()
}

/// The lints a manifest's `header` table sets to `"deny"`.
fn denied_in(manifest: &str, header: &str) -> Vec<String> {
    let table = manifest
        .split(header)
        .nth(1)
        .unwrap_or_else(|| panic!("manifest has no {header} table"));
    table
        .split("\n[")
        .next()
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.strip_suffix(" = \"deny\""))
        .map(str::to_string)
        .collect()
}

#[test]
fn clippy_rejects_every_site_of_the_moved_rules() {
    let target_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-rule-fixtures");
    let out = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--message-format",
            "short",
        ])
        .arg("--manifest-path")
        .arg(format!("{MANIFEST_DIR}/tests/fixtures/clippy/Cargo.toml"))
        .arg("--target-dir")
        .arg(&target_dir)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo clippy runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "clippy accepted the fixtures:\n{stderr}"
    );

    let mut expected = sites("d1_hash_collections.rs", &["HashMap", "HashSet"]);
    expected.extend(sites("d2_ambient_time.rs", &["Instant", "SystemTime"]));
    expected.extend(sites(
        "p1_panic_paths.rs",
        &[
            ".unwrap()",
            ".expect(",
            "panic!",
            "todo!",
            "unimplemented!",
            "unreachable!",
        ],
    ));
    assert_eq!(expected.len(), 14, "fixture sites: {expected:?}");
    for (fixture, line) in &expected {
        let site = format!("{fixture}:{line}:");
        assert!(
            stderr
                .lines()
                .any(|l| l.contains(&site) && l.contains("error")),
            "clippy did not reject {site}\n{stderr}"
        );
    }
}

#[test]
fn p1_scopes_deny_the_whole_panic_family() {
    let family = denied_in(
        &read(&format!("{MANIFEST_DIR}/tests/fixtures/clippy/Cargo.toml")),
        "[lints.clippy]",
    );
    assert_eq!(family.len(), 6, "{family:?}");
    let root = format!("{MANIFEST_DIR}/../..");
    let workspace = denied_in(
        &read(&format!("{root}/Cargo.toml")),
        "[workspace.lints.clippy]",
    );
    assert!(read(&format!("{root}/crates/dist/Cargo.toml")).contains("[lints]\nworkspace = true"));
    for module in ["world", "model", "replication"] {
        let src = read(&format!("{root}/crates/core/src/{module}.rs"));
        let deny: Vec<&str> = src
            .split("#![deny(")
            .nth(1)
            .and_then(|rest| rest.split(")]").next())
            .unwrap_or_else(|| panic!("core::{module} has no inner #![deny]"))
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter_map(|t| t.strip_prefix("clippy::"))
            .collect();
        for lint in &family {
            assert!(
                workspace.contains(lint),
                "workspace lints do not deny {lint}"
            );
            assert!(
                deny.contains(&lint.as_str()),
                "core::{module} does not deny clippy::{lint}"
            );
        }
    }
}
