//! A tour of the two masking strategies (Figs. 3 and 4 of the paper),
//! rendered as ASCII so you can *see* what gets masked and why.
//!
//! ```text
//! cargo run --release --example masking_tour
//! ```

use rand::SeedableRng;
use tfmae::core::{
    frequency_mask, temporal_mask_patched, temporal_statistic, FreqMaskKind, TemporalMaskKind,
};
use tfmae::fft::amplitude_spectrum;

fn bar(v: f64, max: f64, width: usize) -> String {
    let n = ((v / max.max(1e-12)) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

fn main() {
    let t = 64;
    // A clean seasonal signal with one spike (observation anomaly) and a
    // short high-frequency burst (pattern anomaly).
    let mut x: Vec<f32> = (0..t)
        .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 16.0).sin())
        .collect();
    x[20] = 4.0; // global point anomaly
    for (i, v) in (44..52).zip(&mut x[44..52]) {
        *v = (2.0 * std::f32::consts::PI * i as f32 / 3.0).sin(); // seasonal break
    }

    // ---------------- window-based temporal masking (Fig. 3) -------------
    println!("== window-based temporal masking (Eq. 1-5) ==");
    let stat = temporal_statistic(&x, t, 1, 10, TemporalMaskKind::Cv, true);
    let max = stat.iter().cloned().fold(f64::MIN, f64::max);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mask = temporal_mask_patched(&x, t, 1, 1, 12, 10, TemporalMaskKind::Cv, true, &mut rng);
    for i in 0..t {
        let m = if mask.masked.contains(&i) { "MASK" } else { "    " };
        println!("t={i:<3} x={:>6.2}  {m}  cv {}", x[i], bar(stat[i], max, 30));
    }
    println!(
        "masked {} observations; the spike at t=20 and the burst windows are candidates\n",
        mask.masked.len()
    );

    // ---------------- amplitude-based frequency masking (Fig. 4) ---------
    println!("== amplitude-based frequency masking (Eq. 6-10) ==");
    let amp = amplitude_spectrum(&x.iter().map(|&v| v as f64).collect::<Vec<_>>());
    let amax = amp.iter().cloned().fold(f64::MIN, f64::max);
    let fm = frequency_mask(&x, t, 1, 10, FreqMaskKind::Amplitude, &mut rng);
    for (i, &a) in amp.iter().enumerate() {
        let m = if fm.masked_bins[0].contains(&i) { "MASK" } else { "    " };
        println!("bin={i:<3} |X|={a:>7.3}  {m}  {}", bar(a, amax, 30));
    }
    println!(
        "masked the {} smallest-amplitude bins; the dominant seasonal bin (4) survives",
        fm.masked_bins[0].len()
    );

    // The purified (base) signal has the burst attenuated:
    let burst_energy_raw: f32 = (44..52).map(|i| x[i] * x[i]).sum();
    let burst_energy_masked: f32 = (44..52).map(|i| fm.base[i] * fm.base[i]).sum();
    println!(
        "burst energy raw={burst_energy_raw:.2} vs after masking={burst_energy_masked:.2} \
         (pattern anomaly attenuated before the autoencoder sees it)"
    );

    // High-frequency masking (the `w/ HMF` ablation) for contrast:
    let hmf = frequency_mask(&x, t, 1, 10, FreqMaskKind::HighFreq, &mut rng);
    println!("\nw/ HMF would mask bins {:?} — frequency position, not evidence", hmf.masked_bins[0]);
}
