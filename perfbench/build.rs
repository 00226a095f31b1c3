//! Stamps build provenance into the binary: the compiler version, the git
//! revision when the sources are a git checkout, and a digest of the
//! repository sources the benchmark builds.

use std::path::{Path, PathBuf};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(path);
        }
    }
}

/// FNV-1a over the sorted relative paths and contents of every `.rs` and
/// `.toml` file under `crates/` and `shims/`.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for sub in ["crates", "shims"] {
        collect(&root.join(sub), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        eat(rel.to_string_lossy().as_bytes());
        eat(&std::fs::read(file).unwrap_or_default());
    }
    format!("{hash:016x}")
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("perfbench sits in the repository root");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=../shims");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git about a checkout that is itself a repository: git would
    // otherwise walk up into whatever repository encloses the directory.
    let git_rev = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={git_rev}");
    println!(
        "cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={}",
        source_digest(root)
    );
}
