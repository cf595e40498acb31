//! Golden-fixture tests: a trained FS+GAN pipeline committed to
//! `tests/fixtures/` must keep loading byte-for-byte and reproducing its
//! recorded predictions forever — any format or numeric change that breaks
//! old artifacts fails here. The negative half damages the fixture in every
//! structural way (magic, version, checksum, truncation, per-section
//! corruption) and demands a typed refusal, never a panic or a wrong model.
//!
//! Regenerate the fixtures after an *intentional* format change with:
//!
//! ```text
//! cargo test --test persist_golden -- --ignored regenerate
//! ```

use fsda::core::adapter::{AdapterConfig, Budget, FsGanAdapter};
use fsda::core::persist::{
    crc32, read_container, write_container, PersistError, FORMAT_VERSION, TAG_CLSF, TAG_FSEP,
    TAG_META, TAG_NORM, TAG_RECN,
};
use fsda::core::DriftMitigator;
use fsda::data::fewshot::few_shot_indices;
use fsda::data::synth5gipc::{Synth5gipc, NUM_GROUPS};
use fsda::data::Dataset;
use fsda::linalg::{Matrix, SeededRng};
use fsda::models::ClassifierKind;

/// Rows of the evaluation set pinned by the golden predictions file.
const EVAL_ROWS: usize = 64;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).unwrap_or_else(|e| {
        panic!(
            "missing fixture {name} ({e}); regenerate with \
             `cargo test --test persist_golden -- --ignored regenerate`"
        )
    })
}

/// The deterministic evaluation slice the golden predictions refer to.
fn eval_features() -> (Matrix, Dataset) {
    let bundle = Synth5gipc::small().generate(90).unwrap();
    let idx: Vec<usize> = (0..EVAL_ROWS).collect();
    (
        bundle.target_test.features().select_rows(&idx),
        bundle.target_test,
    )
}

/// Trains the pipeline the committed fixture was generated from. Only the
/// ignored regeneration test pays this cost; the checks just read files.
fn train_fixture_adapter() -> FsGanAdapter {
    let bundle = Synth5gipc::small().generate(90).unwrap();
    let mut rng = SeededRng::new(91);
    let idx = few_shot_indices(&bundle.target_pool_groups, NUM_GROUPS, 5, &mut rng).unwrap();
    let shots = bundle.target_pool.subset(&idx);
    let cfg = AdapterConfig {
        classifier: ClassifierKind::Xgb,
        budget: Budget {
            nn_epochs: 10,
            gan_epochs: 60,
            emb_epochs: 10,
            forest_trees: 10,
            gbdt_rounds: 5,
            threads: 2,
        },
        ..AdapterConfig::default()
    };
    FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 92).unwrap()
}

#[test]
#[ignore = "rewrites the committed golden fixtures; run only after an intentional format change"]
fn regenerate() {
    let adapter = train_fixture_adapter();
    std::fs::create_dir_all(fixture_path("")).unwrap();
    adapter.save(fixture_path("fsgan_5gipc_v1.fsda")).unwrap();
    let (x, _) = eval_features();
    let pred = adapter.predict_batch(&x, Some(1));
    let lines: Vec<String> = pred.iter().map(|p| p.to_string()).collect();
    std::fs::write(
        fixture_path("fsgan_5gipc_v1.predictions.txt"),
        lines.join("\n") + "\n",
    )
    .unwrap();
}

#[test]
fn golden_artifact_reencodes_byte_identically() {
    let bytes = read_fixture("fsgan_5gipc_v1.fsda");
    let adapter = FsGanAdapter::from_bytes(&bytes).unwrap();
    assert_eq!(
        adapter.to_bytes().unwrap(),
        bytes,
        "decode -> encode must reproduce the committed artifact exactly"
    );
}

#[test]
fn golden_artifact_reproduces_committed_predictions() {
    let bytes = read_fixture("fsgan_5gipc_v1.fsda");
    let adapter = FsGanAdapter::from_bytes(&bytes).unwrap();
    let (x, _) = eval_features();
    let expected: Vec<usize> = String::from_utf8(read_fixture("fsgan_5gipc_v1.predictions.txt"))
        .unwrap()
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    assert_eq!(expected.len(), EVAL_ROWS);
    // Thread count must not matter for the served predictions either.
    for threads in [1, 2, 4] {
        assert_eq!(
            adapter.predict_batch(&x, Some(threads)),
            expected,
            "threads = {threads}"
        );
    }
}

#[test]
fn golden_artifact_rejects_bad_magic() {
    let mut bytes = read_fixture("fsgan_5gipc_v1.fsda");
    bytes[0] ^= 0xFF;
    assert!(matches!(
        read_container(&bytes),
        Err(PersistError::BadMagic)
    ));
    assert!(FsGanAdapter::from_bytes(&bytes).is_err());
}

#[test]
fn golden_artifact_rejects_future_version() {
    let mut bytes = read_fixture("fsgan_5gipc_v1.fsda");
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    // Recompute the trailer so only the version check can fire.
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    match read_container(&bytes) {
        Err(PersistError::Version { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn golden_artifact_rejects_payload_corruption() {
    let mut bytes = read_fixture("fsgan_5gipc_v1.fsda");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    assert!(matches!(
        read_container(&bytes),
        Err(PersistError::Corrupt(_))
    ));
    assert!(FsGanAdapter::from_bytes(&bytes).is_err());
}

#[test]
fn golden_artifact_rejects_truncation() {
    let bytes = read_fixture("fsgan_5gipc_v1.fsda");
    // Cuts inside the header, the section table, the payload, and the
    // checksum trailer — none may parse.
    for cut in [
        0,
        3,
        11,
        40,
        113,
        bytes.len() / 2,
        bytes.len() - 5,
        bytes.len() - 1,
    ] {
        assert!(
            read_container(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
        assert!(FsGanAdapter::from_bytes(&bytes[..cut]).is_err());
    }
    // A short header is reported as truncation, not corruption.
    assert!(matches!(
        read_container(&bytes[..3]),
        Err(PersistError::Truncated(_))
    ));
}

#[test]
fn every_section_is_independently_validated() {
    let bytes = read_fixture("fsgan_5gipc_v1.fsda");
    let sections: Vec<([u8; 4], Vec<u8>)> = read_container(&bytes)
        .unwrap()
        .iter()
        .map(|(tag, payload)| (*tag, payload.to_vec()))
        .collect();
    assert_eq!(sections.len(), 5);

    for &tag in &[TAG_META, TAG_FSEP, TAG_NORM, TAG_RECN, TAG_CLSF] {
        let name = String::from_utf8_lossy(&tag).into_owned();

        // Dropping the section entirely: a valid container, but the
        // pipeline refuses to load without it.
        let dropped: Vec<_> = sections
            .iter()
            .filter(|(t, _)| *t != tag)
            .cloned()
            .collect();
        assert!(
            FsGanAdapter::from_bytes(&write_container(&dropped)).is_err(),
            "loaded without section {name}"
        );

        // Cutting the section's last byte (with a recomputed, valid
        // container around it): the section decoder must notice.
        let cut: Vec<_> = sections
            .iter()
            .map(|(t, p)| {
                let p = if *t == tag {
                    p[..p.len() - 1].to_vec()
                } else {
                    p.clone()
                };
                (*t, p)
            })
            .collect();
        assert!(
            FsGanAdapter::from_bytes(&write_container(&cut)).is_err(),
            "loaded section {name} with its last byte cut"
        );

        // A stray trailing byte inside the section: the decoder checks it
        // consumed the section exactly.
        let padded: Vec<_> = sections
            .iter()
            .map(|(t, p)| {
                let mut p = p.clone();
                if *t == tag {
                    p.push(0);
                }
                (*t, p)
            })
            .collect();
        assert!(
            FsGanAdapter::from_bytes(&write_container(&padded)).is_err(),
            "loaded section {name} with a stray trailing byte"
        );
    }
}
