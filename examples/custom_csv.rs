//! Bring-your-own-data workflow: load source/target CSV files, run the
//! FS+GAN pipeline, and write predictions back out. This is the path a
//! network operator with real metric exports would take.
//!
//! Run with:
//! `cargo run --release --example custom_csv -- source.csv shots.csv test.csv`
//!
//! Without arguments the example writes itself a demo pair of CSV files
//! first (from the synthetic 5GIPC generator), so it is runnable anywhere.

use fsda::core::adapter::{AdapterConfig, Budget, FsGanAdapter};
use fsda::core::drift::{DriftConfig, DriftDetector};
use fsda::core::DriftMitigator;
use fsda::data::csv::{read_csv, write_csv};
use fsda::data::fewshot::few_shot_subset;
use fsda::data::synth5gipc::Synth5gipc;
use fsda::linalg::SeededRng;
use fsda::models::ClassifierKind;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let (source_path, shots_path, test_path) = if args.len() >= 4 {
        (args[1].clone(), args[2].clone(), args[3].clone())
    } else {
        println!("(no CSV paths given; writing demo files to ./target/fsda-demo)\n");
        demo_files()?
    };

    let source = read_csv(File::open(&source_path)?)?;
    let shots = read_csv(File::open(&shots_path)?)?;
    let test = read_csv(File::open(&test_path)?)?;
    println!(
        "source: {} x {}, shots: {}, test: {}",
        source.len(),
        source.num_features(),
        shots.len(),
        test.len()
    );

    // Is the operational window even drifted? If not, the source model can
    // be used as-is — adaptation is on demand.
    let detector = DriftDetector::fit(source.features(), DriftConfig::default());
    let report = detector.score(test.features());
    println!(
        "drift check: {} of {} features drifted -> re-adapt = {}",
        report.drifted_features.len(),
        source.num_features(),
        report.readapt
    );

    let config = AdapterConfig {
        classifier: ClassifierKind::Xgb,
        budget: Budget::quick(),
        ..AdapterConfig::default()
    };
    let adapter = FsGanAdapter::fit(&source, &shots, &config, 7)?;
    println!(
        "FS found {} variant / {} invariant features",
        adapter.separation().variant().len(),
        adapter.separation().invariant().len()
    );
    let pred = adapter.predict(test.features());

    let out_path = Path::new(&test_path).with_extension("predictions.csv");
    let mut out = File::create(&out_path)?;
    writeln!(out, "row,prediction")?;
    for (i, p) in pred.iter().enumerate() {
        writeln!(out, "{i},{p}")?;
    }
    println!("wrote {} predictions to {}", pred.len(), out_path.display());

    // If ground truth was present in the test CSV, report F1 as a courtesy.
    let f1 = fsda::models::metrics::macro_f1(test.labels(), &pred, test.num_classes());
    println!("macro-F1 vs labels in the test file: {:.1}", 100.0 * f1);
    Ok(())
}

/// Writes a demo source/shots/test CSV triple and returns their paths.
fn demo_files() -> Result<(String, String, String), Box<dyn std::error::Error>> {
    let dir = Path::new("target/fsda-demo");
    std::fs::create_dir_all(dir)?;
    let bundle = Synth5gipc::small().generate(11)?;
    let mut rng = SeededRng::new(12);
    let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng)?;
    let paths = (
        dir.join("source.csv"),
        dir.join("shots.csv"),
        dir.join("test.csv"),
    );
    write_csv(&bundle.source_train, File::create(&paths.0)?)?;
    write_csv(&shots, File::create(&paths.1)?)?;
    write_csv(&bundle.target_test, File::create(&paths.2)?)?;
    Ok((
        paths.0.to_string_lossy().into_owned(),
        paths.1.to_string_lossy().into_owned(),
        paths.2.to_string_lossy().into_owned(),
    ))
}
