//! Store-file writes: `gpu-sim store` rewrites its JSONL through a sibling
//! temp file and a rename, so the file on disk is always a whole store.

use std::path::Path;
use std::process::{Command, Output};

use warped_slicer::{CurveKey, CurveStore, StoreEntry};

fn gpu_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-sim"))
        .args(args)
        .output()
        .expect("gpu-sim binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn store_clear_replaces_an_existing_file_whole() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("store_clear_replaces");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("curves.jsonl");
    let path = file.to_str().expect("utf-8 path");

    let mut old = CurveStore::new(8);
    let key = CurveKey {
        kernel_sig: 1,
        gpu_sig: 7,
    };
    let entry = StoreEntry {
        class: "compute".to_string(),
        archetype: "compute-saturating".to_string(),
        perf: vec![1.0, 2.0, 3.0],
        knee: 3,
    };
    assert!(old.insert(key, entry));
    std::fs::write(&file, old.to_jsonl()).expect("seed store file");

    let out = gpu_sim(&["store", "clear", path, "--capacity", "4"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let out = gpu_sim(&["--validate-trace", path]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let text = std::fs::read_to_string(&file).expect("store file");
    let cleared = CurveStore::from_jsonl(&text).expect("store loads");
    assert_eq!((cleared.len(), cleared.capacity()), (0, 4));
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("list scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(names, ["curves.jsonl"], "no temp sibling left behind");
    let _ = std::fs::remove_dir_all(&dir);
}
