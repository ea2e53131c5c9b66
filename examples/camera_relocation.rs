//! Case study: detecting a relocated camera (§6.2 cases 1/4/5).
//!
//! A camera moved to a motion-heavy spot produces many more motion events.
//! The system model was never designed for this, yet the long-term
//! deviation metric flags the shifted transition frequencies.
//!
//! ```sh
//! cargo run --release --example camera_relocation
//! ```

use behaviot::deviation::{long_term_deviations_syms, long_term_threshold};
use behaviot::system::{SystemModel, SystemModelConfig};
use behaviot_intern::Symbol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn day_of_traces(rng: &mut StdRng, motion_per_day: usize) -> Vec<Vec<Symbol>> {
    let sym = Symbol::intern;
    let mut traces = Vec::new();
    // Normal living: R8 (Ring motion -> Gosund on) and some voice control.
    for _ in 0..10 {
        traces.push(vec![sym("Ring Camera:motion"), sym("Gosund Bulb:on_off")]);
        if rng.gen::<f64>() < 0.5 {
            traces.push(vec![sym("Echo Spot:voice"), sym("TPLink Bulb:on_off")]);
        }
    }
    // Wyze camera motion at its (location-dependent) rate.
    for _ in 0..motion_per_day {
        traces.push(vec![sym("Wyze Camera:motion"), sym("TPLink Plug:on_off")]);
    }
    traces
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // Observation period: the camera faces a quiet corner (2 motions/day).
    let mut training = Vec::new();
    for _ in 0..7 {
        training.extend(day_of_traces(&mut rng, 2));
    }
    let model = SystemModel::from_traces(&training, &SystemModelConfig::default());
    let crit = long_term_threshold(0.95);
    println!(
        "system model: {} states, threshold |z| > {crit:.2}",
        model.pfsm.n_states()
    );

    // Day 1 after training: same placement.
    let normal_day = day_of_traces(&mut rng, 2);
    report("normal day", &model, &normal_day, crit);

    // Day 2: the camera was moved next to the door -> 20 motions/day.
    let moved_day = day_of_traces(&mut rng, 20);
    report("after relocation", &model, &moved_day, crit);
}

fn report(label: &str, model: &SystemModel, window: &[Vec<Symbol>], crit: f64) {
    let results = long_term_deviations_syms(model, window);
    let flagged: Vec<_> = results
        .iter()
        .filter(|r| r.z > crit && (r.observed_p - r.model_p).abs() * r.n as f64 >= 3.0)
        .collect();
    println!(
        "\n== {label}: {} transitions tested, {} flagged",
        results.len(),
        flagged.len()
    );
    for r in flagged.iter().take(5) {
        println!(
            "  {} -> {}   observed {:.2} vs modeled {:.2} over {} departures (|z| = {:.1})",
            r.from, r.to, r.observed_p, r.model_p, r.n, r.z
        );
    }
}
