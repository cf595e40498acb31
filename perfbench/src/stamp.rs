//! Provenance stamped on every result: which source was measured, on how
//! many cores, with which kernel path, from which seed.

use std::fs;
use std::path::{Path, PathBuf};

/// Root of the repository checkout this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The commit at `HEAD`, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Every `.rs` and `Cargo.toml` file under `dir`, recursively, skipping
/// build output and hidden directories.
fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == "target" || name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            source_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// FNV-1a digest of the library sources (`crates/`, the root manifest and
/// this benchmark), in path order. It identifies the measured code when the
/// checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml")];
    source_files(&root.join("crates"), &mut files);
    source_files(&root.join("perfbench"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let bytes = fs::read(path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv64:{hash:016x} over {} files", files.len())
}

/// One line naming the measured source, host parallelism, kernel path and
/// seed.
pub fn line(seed: u64) -> String {
    let root = repo_root();
    let commit = git_commit(&root).unwrap_or_else(|| "none (not a git checkout)".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "stamp: commit {commit}; source {}; nproc {nproc}; kernel {}; seed {seed}",
        source_digest(&root),
        fsda_linalg::kernel::kernel_path().label()
    )
}
