//! TFMAE configuration, including every ablation switch of Tables IV & V.

/// How temporal-mask candidates are selected (§IV-A1 and Table V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TemporalMaskKind {
    /// Coefficient of variation over a trailing window (the paper's method).
    Cv,
    /// Standard deviation only (`w/ SMT`).
    Std,
    /// Uniformly random indices (`w/ RMT`).
    Random,
    /// No temporal masking (`w/o MT`).
    None,
}

/// How frequency-mask bins are selected (§IV-A2 and Table V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreqMaskKind {
    /// Smallest-amplitude bins (the paper's method).
    Amplitude,
    /// Highest-frequency bins (`w/ HMF`).
    HighFreq,
    /// Uniformly random bins (`w/ RMF`).
    Random,
    /// No frequency masking (`w/o MF`).
    None,
}

/// Objective-function variants (Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversarialMode {
    /// Eq. 15: `min_F max_P symKL` with stop-gradients (the paper's method).
    Full,
    /// `w/o L_adv`: the pure contrastive objective of Eq. 14 (gradient of
    /// the temporal representation halted).
    NoAdversarial,
    /// `w/ L_radv`: roles of `P` and `F` swapped in Eq. 15.
    Reversed,
}

/// Longest window a config may describe (the paper fixes 100). The
/// positional tables, `win_len × d_model` floats each, are the one buffer
/// the model sizes from the config rather than from stored parameters, so
/// this bound is what keeps a checkpoint's config from asking the loader
/// for an allocation the file does not pay for.
pub const MAX_WIN_LEN: usize = 8192;

/// Full hyper-parameter set for TFMAE.
#[derive(Clone, Debug)]
pub struct TfmaeConfig {
    /// Model input length (the paper fixes 100, §V-B).
    pub win_len: usize,
    /// Latent width `D` (paper default 128; the CPU harness default is 64 —
    /// Fig. 7 sweeps both).
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Transformer layers `L` (paper default 3).
    pub layers: usize,
    /// Sliding-window length `W` for the coefficient of variation (paper 10).
    pub cv_window: usize,
    /// Temporal masking ratio `r_T` (fraction, e.g. 0.55).
    pub r_temporal: f64,
    /// Frequency masking ratio `r_F` (fraction of rFFT bins).
    pub r_frequency: f64,
    /// Adam learning rate (paper 1e-4).
    pub lr: f32,
    /// Training epochs (paper uses 1 on the full-size datasets; the scaled
    /// simulators need a few more passes to see as many windows).
    pub epochs: usize,
    /// Windows per batch (paper 64).
    pub batch: usize,
    /// Use the FFT-accelerated CV (Eq. 5); `false` is the `w/o FFT` ablation.
    pub use_fft_cv: bool,
    /// Temporal masking variant.
    pub temporal_mask: TemporalMaskKind,
    /// Frequency masking variant.
    pub freq_mask: FreqMaskKind,
    /// Objective variant.
    pub adversarial: AdversarialMode,
    /// `w/o Tem`: disable the temporal view entirely.
    pub use_temporal_branch: bool,
    /// `w/o Fre`: disable the frequency view entirely.
    pub use_frequency_branch: bool,
    /// `w/o TE`: drop the temporal encoder (decoder sees raw projections).
    pub temporal_encoder: bool,
    /// `w/o TD`: drop the temporal decoder.
    pub temporal_decoder: bool,
    /// `w/o FD`: drop the frequency decoder.
    pub frequency_decoder: bool,
    /// Weight of the masked-reconstruction grounding terms (the MAE
    /// "recovery" of Fig. 5; Eq. 15 alone does not tie representations to
    /// the data — see DESIGN.md §3).
    pub recon_weight: f32,
    /// Stride between training windows (default = `win_len`, i.e.
    /// non-overlapping tiles; smaller values yield more training windows on
    /// the scaled simulators).
    pub train_stride: usize,
    /// RNG seed controlling init and the random-mask variants.
    pub seed: u64,
    /// Temporal patch length `P` (Ti-MAE-style tokenization). The temporal
    /// branch operates on `win_len / P` patch tokens of `P · dims` raw
    /// values each, cutting attention FLOPs ~`P²`x; `P = 1` is bitwise
    /// identical to the unpatched model. The frequency branch always stays
    /// at raw rFFT-bin resolution (TFAD's motivation). Must divide
    /// `win_len`.
    pub patch_len: usize,
}

impl Default for TfmaeConfig {
    fn default() -> Self {
        Self {
            win_len: 100,
            d_model: 64,
            heads: 4,
            d_ff: 128,
            layers: 2,
            cv_window: 10,
            r_temporal: 0.25,
            r_frequency: 0.25,
            lr: 1e-3,
            epochs: 3,
            batch: 32,
            use_fft_cv: true,
            temporal_mask: TemporalMaskKind::Cv,
            freq_mask: FreqMaskKind::Amplitude,
            adversarial: AdversarialMode::Full,
            use_temporal_branch: true,
            use_frequency_branch: true,
            temporal_encoder: true,
            temporal_decoder: true,
            frequency_decoder: true,
            recon_weight: 1.0,
            train_stride: 50,
            seed: 7,
            patch_len: 1,
        }
    }
}

impl TfmaeConfig {
    /// The paper's exact §V-A4 setting (slower on CPU; Fig. 7 covers the
    /// difference to the harness default).
    pub fn paper() -> Self {
        Self { d_model: 128, d_ff: 256, layers: 3, lr: 1e-4, epochs: 1, batch: 64, ..Self::default() }
    }

    /// A small fast configuration for tests.
    pub fn tiny() -> Self {
        Self {
            win_len: 32,
            d_model: 16,
            heads: 2,
            d_ff: 32,
            layers: 1,
            epochs: 2,
            batch: 16,
            train_stride: 32,
            ..Self::default()
        }
    }

    /// Default learning rate for serving-side background fine-tuning
    /// (`lr / 10`): online updates see far fewer, more correlated windows
    /// than `fit`, so they step an order of magnitude more cautiously (see
    /// [`crate::adapt`]).
    pub fn finetune_lr(&self) -> f32 {
        self.lr * 0.1
    }

    /// Number of masked observations `I_T = ⌊r_T · |S|⌋` (Eq. 2).
    pub fn masked_time_steps(&self) -> usize {
        ((self.win_len as f64) * self.r_temporal).floor() as usize
    }

    /// Number of temporal patch tokens `T / P` the temporal branch
    /// attends over. Equals `win_len` when `patch_len = 1`.
    pub fn num_patch_tokens(&self) -> usize {
        self.win_len / self.patch_len.max(1)
    }

    /// Number of masked temporal *tokens*: Eq. 2's floor formula applied
    /// at token granularity, `⌊r_T · T/P⌋`. Identical to
    /// [`masked_time_steps`](Self::masked_time_steps) at `patch_len = 1`.
    pub fn masked_tokens(&self) -> usize {
        ((self.num_patch_tokens() as f64) * self.r_temporal).floor() as usize
    }

    /// Number of masked frequency bins `I_F = ⌊r_F · bins⌋` (Eq. 8), over
    /// the `win_len/2 + 1` unique rFFT bins.
    pub fn masked_freq_bins(&self) -> usize {
        let bins = self.win_len / 2 + 1;
        ((bins as f64) * self.r_frequency).floor() as usize
    }

    /// Validates invariants; call before training.
    pub fn validate(&self) -> Result<(), String> {
        if !(4..=MAX_WIN_LEN).contains(&self.win_len) {
            return Err(format!("win_len must be in 4..={MAX_WIN_LEN}, got {}", self.win_len));
        }
        if !self.d_model.is_multiple_of(self.heads) {
            return Err(format!("d_model {} must divide into {} heads", self.d_model, self.heads));
        }
        if !(0.0..1.0).contains(&self.r_temporal) || !(0.0..1.0).contains(&self.r_frequency) {
            return Err("masking ratios must be in [0, 1)".into());
        }
        if self.masked_time_steps() >= self.win_len {
            return Err("temporal mask would cover the whole window".into());
        }
        if !self.use_temporal_branch && !self.use_frequency_branch {
            return Err("at least one branch must be enabled".into());
        }
        if self.cv_window == 0 {
            return Err("cv_window must be >= 1".into());
        }
        if self.train_stride == 0 {
            return Err("train_stride must be >= 1".into());
        }
        if self.recon_weight < 0.0 {
            return Err("recon_weight must be non-negative".into());
        }
        if self.patch_len == 0 {
            return Err("patch_len must be >= 1".into());
        }
        if !self.win_len.is_multiple_of(self.patch_len) {
            return Err(format!(
                "patch_len {} must divide win_len {}",
                self.patch_len, self.win_len
            ));
        }
        // Mirror the whole-window guard at token granularity: the encoder
        // needs at least 2 unmasked tokens for attention to relate anything.
        // Gated on patch_len > 1 so the legacy (P = 1) acceptance surface is
        // untouched — there the `masked_time_steps() >= win_len` guard above
        // already rejects full-window masks and win_len >= 4 keeps ≥ 2
        // unmasked rows for any r_temporal < 1.
        if self.patch_len > 1 && self.num_patch_tokens() - self.masked_tokens() < 2 {
            return Err(format!(
                "patch_len {} leaves {} unmasked patch tokens (< 2) at r_temporal {}",
                self.patch_len,
                self.num_patch_tokens() - self.masked_tokens(),
                self.r_temporal
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        TfmaeConfig::default().validate().unwrap();
        TfmaeConfig::paper().validate().unwrap();
        TfmaeConfig::tiny().validate().unwrap();
    }

    #[test]
    fn mask_counts_follow_floor_formulas() {
        let cfg = TfmaeConfig { win_len: 100, r_temporal: 0.55, r_frequency: 0.40, ..Default::default() };
        assert_eq!(cfg.masked_time_steps(), 55);
        assert_eq!(cfg.masked_freq_bins(), 20); // ⌊51 · 0.4⌋
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = TfmaeConfig { heads: 3, ..Default::default() }; // 64 % 3 != 0
        assert!(cfg.validate().is_err());

        let cfg = TfmaeConfig { r_temporal: 1.0, ..Default::default() };
        assert!(cfg.validate().is_err());

        let cfg = TfmaeConfig { win_len: MAX_WIN_LEN + 1, ..Default::default() };
        assert!(cfg.validate().is_err());

        let cfg = TfmaeConfig {
            use_temporal_branch: false,
            use_frequency_branch: false,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn token_counts_follow_floor_formulas() {
        let cfg = TfmaeConfig { win_len: 100, patch_len: 5, r_temporal: 0.55, ..Default::default() };
        assert_eq!(cfg.num_patch_tokens(), 20);
        assert_eq!(cfg.masked_tokens(), 11); // ⌊20 · 0.55⌋
        // At P = 1, token accounting coincides with time-step accounting.
        let flat = TfmaeConfig { win_len: 100, r_temporal: 0.55, ..Default::default() };
        assert_eq!(flat.masked_tokens(), flat.masked_time_steps());
    }

    #[test]
    fn patch_len_validation_edge_cases() {
        // Must divide win_len.
        let cfg = TfmaeConfig { patch_len: 7, ..Default::default() }; // 100 % 7 != 0
        assert!(cfg.validate().is_err());
        // Zero is rejected.
        let cfg = TfmaeConfig { patch_len: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
        // 2 tokens, 1 masked, 1 unmasked -> fewer than 2 unmasked tokens.
        let cfg = TfmaeConfig { patch_len: 50, r_temporal: 0.5, ..Default::default() };
        assert!(cfg.validate().is_err());
        // 2 tokens, 0 masked -> both tokens survive, accepted.
        let cfg = TfmaeConfig { patch_len: 50, r_temporal: 0.25, ..Default::default() };
        cfg.validate().unwrap();
        // A single token can never keep 2 unmasked ones.
        let cfg = TfmaeConfig { patch_len: 100, r_temporal: 0.0, ..Default::default() };
        assert!(cfg.validate().is_err());
        // The paper-scale sweep settings all pass.
        for p in [1, 5, 10] {
            let cfg = TfmaeConfig { patch_len: p, ..Default::default() };
            cfg.validate().unwrap();
        }
    }
}
