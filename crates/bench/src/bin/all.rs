//! Runs every table/figure experiment in one pass (shared dataset prep).
//! Pass --quick for reduced scale, --threads auto|off|N for the thread
//! policy (results are identical under every policy).
use behaviot_bench::{
    experiments as e, parallelism_from_args, refuse_unknown_args, scale_from_args, ObsSession,
    Prepared,
};

type Section<'a> = (&'a str, Box<dyn Fn() -> String + 'a>);

const USAGE: &str = "usage: all [--quick] [--threads auto|off|N] [--trace spans.json] \
[--metrics-out metrics.jsonl] [--openmetrics-out metrics.prom]";

fn main() {
    refuse_unknown_args(USAGE, &["--threads"], &["--quick"]);
    let obs = ObsSession::from_args();
    let scale = scale_from_args();
    let parallelism = parallelism_from_args();
    eprintln!("[all] building datasets + models ({scale:?}, threads {parallelism})...");
    let t0 = std::time::Instant::now();
    let p = Prepared::build_with(scale, parallelism);
    eprintln!("[all] prepared in {:.1?}", t0.elapsed());
    let sections: Vec<Section> = vec![
        ("exp_periodicity", Box::new(|| e::exp_periodicity(0x5EED))),
        ("table2", Box::new(|| e::table2(&p))),
        ("exp_fnr_fpr", Box::new(|| e::exp_fnr_fpr(&p))),
        ("table3", Box::new(|| e::table3(&p))),
        ("fig3", Box::new(|| e::fig3(&p))),
        ("exp_pfsm_props", Box::new(|| e::exp_pfsm_props(&p))),
        ("fig4a", Box::new(|| e::fig4a(&p))),
        ("fig4b", Box::new(|| e::fig4b(&p))),
        ("fig4c", Box::new(|| e::fig4c(&p))),
        ("exp_testcases", Box::new(|| e::exp_testcases(&p))),
        ("table4", Box::new(|| e::table4(&p))),
        ("table5", Box::new(|| e::table5(&p))),
        ("table9", Box::new(|| e::table9(&p))),
        ("exp_essential", Box::new(|| e::exp_essential(&p))),
        ("exp_ablations", Box::new(|| e::exp_ablations(&p))),
        ("fig5", Box::new(|| e::fig5(&p))),
    ];
    for (name, run) in sections {
        let t = std::time::Instant::now();
        let report = run();
        eprintln!("[all] {name} done in {:.1?}", t.elapsed());
        println!("{report}");
    }
    obs.finish();
}
