//! The model registry: a directory of versioned, CRC-checked checkpoint
//! files, one model per `<name>.json` (DESIGN.md §19.2).
//!
//! The scan is deliberately *non-loading*: it runs
//! [`tfmae_core::inspect_checkpoint`] per file, which verifies the frame
//! and section CRCs and decodes the payload without constructing the
//! model — so listing a registry of large checkpoints stays cheap, and a
//! damaged file shows up as a flagged row instead of failing the whole
//! listing. The same scan backs both the server's `GET /v1/models` endpoint
//! and the `tfmae models ls` CLI subcommand.

use std::io;
use std::path::{Path, PathBuf};

use tfmae_core::{inspect_checkpoint, CheckpointInfo};

/// One registry row: a checkpoint file and what the scan learned
/// about it (or why it could not be read).
pub struct RegistryEntry {
    /// Model name — the file stem (`m1` for `m1.json`). This is the token
    /// clients use in `/v1/models/{name}/load` and `?model=`.
    pub name: String,
    /// Full path to the checkpoint file.
    pub path: PathBuf,
    /// Scan result; `Err` carries the reason the file was unreadable.
    pub info: Result<CheckpointInfo, String>,
}

/// Whether `name` is a token the protocol accepts as a model name:
/// non-empty ASCII alphanumerics plus `.`, `_`, `-`. The whitelist is what
/// makes appending `.json` to a client-supplied name safe — no separators,
/// no traversal, no escapes.
pub fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Scans `dir` for `*.json` checkpoints, sorted by name. Backup/temp
/// siblings written by atomic checkpoint saves (`m.json.bak`, `m.json.tmp`)
/// are skipped naturally — their final extension is not `json`. Files whose
/// stems fail [`valid_model_name`] are skipped too: they could never be
/// addressed over the wire.
pub fn scan_registry(dir: &Path) -> io::Result<Vec<RegistryEntry>> {
    let mut entries = Vec::new();
    for dirent in std::fs::read_dir(dir)? {
        let dirent = dirent?;
        let path = dirent.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") || !path.is_file() {
            continue;
        }
        let Some(name) = path
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
        else {
            continue;
        };
        if !valid_model_name(&name) {
            continue;
        }
        let info = inspect_checkpoint(&path).map_err(|e| e.to_string());
        entries.push(RegistryEntry { name, path, info });
    }
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(entries)
}

/// Renders the scan as the fixed-width table `tfmae models ls` prints.
/// Columns: name, format version, CRC status, serving precision, patch
/// length, window length, input dims, adaptive-section presence, file size.
/// A file that cannot be inspected reads `ERROR` in the CRC column and the
/// reason in place of its size.
pub fn models_table(entries: &[RegistryEntry]) -> String {
    let mut rows: Vec<[String; 9]> = vec![[
        "NAME".into(),
        "VER".into(),
        "CRC".into(),
        "PRECISION".into(),
        "PATCH".into(),
        "WIN".into(),
        "DIMS".into(),
        "ADAPTIVE".into(),
        "BYTES".into(),
    ]];
    for e in entries {
        match &e.info {
            Ok(info) => rows.push([
                e.name.clone(),
                info.version.to_string(),
                if !info.crc_ok {
                    "FAIL".into()
                } else if !info.loadable {
                    "ok (unloadable)".into()
                } else {
                    "ok".into()
                },
                info.precision
                    .map_or_else(|| "f32".into(), |p| p.to_string()),
                info.patch_len.to_string(),
                info.win_len.to_string(),
                info.dims.to_string(),
                if info.adaptive {
                    "yes".into()
                } else {
                    "no".into()
                },
                info.file_bytes.to_string(),
            ]),
            // The reason goes in the last column, which is never padded.
            Err(err) => rows.push([
                e.name.clone(),
                "-".into(),
                "ERROR".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                err.clone(),
            ]),
        }
    }
    // The CRC column starts as wide as `ERROR`, so an unreadable file
    // leaves every width where the readable files put it.
    let mut widths = [0usize; 9];
    widths[2] = "ERROR".len();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        for (i, (cell, w)) in row.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            if i + 1 < row.len() {
                for _ in cell.len()..*w {
                    out.push(' ');
                }
            }
        }
        // Trailing spaces on the last column are never emitted.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_whitelist() {
        assert!(valid_model_name("m1"));
        assert!(valid_model_name("prod-v2.3_final"));
        assert!(!valid_model_name(""));
        assert!(!valid_model_name("a/b"));
        assert!(!valid_model_name("a\\b"));
        assert!(!valid_model_name("a b"));
        assert!(!valid_model_name("a%2eb"));
        assert!(!valid_model_name(&"x".repeat(129)));
    }

    #[test]
    fn scan_skips_non_checkpoint_files() {
        let dir = std::env::temp_dir().join(format!("tfmae-reg-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("notes.txt"), "hi").expect("write");
        std::fs::write(dir.join("m.json.bak"), "{}").expect("write");
        std::fs::write(dir.join("broken.json"), "not json at all").expect("write");
        let entries = scan_registry(&dir).expect("scan");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "broken");
        assert!(entries[0].info.is_err());
        let table = models_table(&entries);
        assert!(table.starts_with("NAME"));
        assert!(table.contains("ERROR"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_checkpoint_is_listed_as_unloadable_next_to_a_binary_one() {
        use tfmae_core::{Checkpoint, TfmaeConfig, TfmaeDetector, TfmaeModel, CHECKPOINT_VERSION};
        let dir = std::env::temp_dir().join(format!("tfmae-reg-mixed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let config = TfmaeConfig::tiny();
        let params = TfmaeModel::new(config.clone(), 1).ps;
        let det = TfmaeDetector::from_checkpoint(Checkpoint {
            config,
            dims: 1,
            norm_mean: vec![0.0],
            norm_std: vec![1.0],
            params,
        })
        .expect("fresh model checkpoints");
        det.save(dir.join("current.json")).expect("save");
        let alone = models_table(&scan_registry(&dir).expect("scan"));
        // The shape of a format-2 file: a JSON envelope around a payload.
        std::fs::write(dir.join("old.json"), r#"{"version":2,"crc32":0,"payload":"{}"}"#)
            .expect("write");

        let entries = scan_registry(&dir).expect("scan");
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["current", "old"]);
        let info = entries[0].info.as_ref().expect("binary checkpoint scans");
        assert!(info.crc_ok && info.loadable, "{info:?}");
        assert_eq!((info.version, info.dims, info.win_len), (CHECKPOINT_VERSION, 1, 32));
        let err = entries[1].info.as_ref().expect_err("JSON checkpoint is not loadable");
        assert!(err.contains("JSON checkpoint"), "{err}");

        let table = models_table(&entries);
        let row = |name: &str| table.lines().find(|l| l.starts_with(name)).expect(name);
        assert!(row("current").contains("  ok  "), "{table}");
        assert!(row("old").contains("  ERROR  "), "{table}");
        assert!(row("old").ends_with(err.as_str()), "{table}");
        // An unreadable file widens no column: the header and the readable
        // row print the same bytes with and without it.
        let line = |t: &str, name: &str| t.lines().find(|l| l.starts_with(name)).map(str::to_string);
        for name in ["NAME", "current"] {
            assert_eq!(line(&table, name), line(&alone, name), "{table}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
