//! Regenerates **Table III**: the no-retraining study. The 5GIPC data is
//! split into three GMM-style domains (Source, Target_1, Target_2); two
//! FS+GAN front-ends are fit (one per target) while the TNet fault-
//! detection model is trained once on Source, and each adapter is
//! evaluated on both targets.
//!
//! `cargo bench -p fsda-bench --bench table3_no_retrain`

use fsda_bench::{paper, three_domain_5gipc, BenchScale};
use fsda_core::adapter::{AdapterConfig, FsGanAdapter};
use fsda_core::report::Comparison;
use fsda_core::DriftMitigator;
use fsda_data::fewshot::few_shot_indices;
use fsda_data::synth5gipc::NUM_GROUPS;
use fsda_linalg::SeededRng;
use fsda_models::metrics::macro_f1;
use fsda_models::ClassifierKind;

fn main() {
    let scale = BenchScale::from_env();
    println!("== Table III: no retraining across successive target domains ==");
    println!("{}", scale.banner());
    let bundle = three_domain_5gipc(&scale, scale.seed.wrapping_add(31));
    let cfg = AdapterConfig {
        classifier: ClassifierKind::Tnet,
        budget: scale.budget(),
        ..AdapterConfig::default()
    };

    let mut rows = Vec::new();
    println!(
        "\n{:<10} {:>22} {:>22}",
        "adapter", "Target_1 k=1/5/10", "Target_2 k=1/5/10"
    );
    for (a_idx, (label, pool, groups)) in [
        (
            "FS+GAN_1",
            &bundle.target1_pool,
            &bundle.target1_pool_groups,
        ),
        (
            "FS+GAN_2",
            &bundle.target2_pool,
            &bundle.target2_pool_groups,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cells_t1 = Vec::new();
        let mut cells_t2 = Vec::new();
        for (k_idx, k) in [1usize, 5, 10].into_iter().enumerate() {
            let mut rng = SeededRng::new(scale.seed + 100 + k as u64 + a_idx as u64 * 7);
            let idx =
                few_shot_indices(groups, NUM_GROUPS, k, &mut rng).expect("few-shot draw failed");
            let shots = pool.subset(&idx);
            let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 41 + k as u64)
                .expect("adapter fit failed");
            let f1_t1 = 100.0
                * macro_f1(
                    bundle.target1_test.labels(),
                    &adapter.predict(bundle.target1_test.features()),
                    2,
                );
            let f1_t2 = 100.0
                * macro_f1(
                    bundle.target2_test.labels(),
                    &adapter.predict(bundle.target2_test.features()),
                    2,
                );
            let (p1, p2) = (paper::TABLE3[a_idx].1[k_idx], paper::TABLE3[a_idx].2[k_idx]);
            rows.push((
                format!("{label} on T1 k={k}"),
                Comparison {
                    paper: p1,
                    measured: f1_t1,
                },
            ));
            rows.push((
                format!("{label} on T2 k={k}"),
                Comparison {
                    paper: p2,
                    measured: f1_t2,
                },
            ));
            cells_t1.push(f1_t1);
            cells_t2.push(f1_t2);
        }
        println!(
            "{:<10} {:>6.1}/{:>5.1}/{:>5.1}  {:>6.1}/{:>5.1}/{:>5.1}",
            label, cells_t1[0], cells_t1[1], cells_t1[2], cells_t2[0], cells_t2[1], cells_t2[2]
        );
    }
    println!(
        "\n{}",
        fsda_core::report::format_comparison("Table III", &rows)
    );
    println!(
        "Shape expectation (paper): each adapter is best on its own target, but the\n\
         TNet model — trained once, on Source only — stays competitive when the\n\
         other target's adapter is used, because the variant sets mostly overlap."
    );
}
