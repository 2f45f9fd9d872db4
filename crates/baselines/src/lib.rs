//! # tfmae-baselines
//!
//! The comparator suite of the TFMAE paper (Table III), reimplemented
//! from scratch on the workspace substrates and run behind a single
//! [`Detector`](tfmae_data::Detector) interface under the paper's exact
//! protocol (identical windows, normalization, validation thresholding and
//! point adjustment — §V-A5).
//!
//! | Paper baseline | Here | Family |
//! |---|---|---|
//! | LOF            | [`Lof`]                     | density |
//! | IForest        | [`IsolationForest`]         | tree |
//! | DSVDD          | [`DeepSvdd`]                | one-class |
//! | DAGMM          | [`Dagmm`]                   | learned density |
//! | OmniAno        | [`DenseAutoencoder`]        | reconstruction |
//! | TimesNet       | [`TimesNetLite`]            | frequency-aware recon |
//! | GPT4TS         | [`TransformerRecon`]        | temporal-only recon |
//! | USAD           | [`Usad`]                    | adversarial recon |
//! | TranAD         | [`TranAdLite`]              | adversarial recon |
//! | AnoTran        | [`AnomalyTransformerLite`]  | contrastive |
//! | DCdetector     | [`DcDetectorLite`]          | contrastive |
//! | THOC           | [`ThocLite`]                | clustering (dilated RNN) |
//!
//! BeatGAN and DAEMON are covered by family representatives (see
//! DESIGN.md §5 and EXPERIMENTS.md for the documented mapping).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anotran_lite;
pub mod common;
pub mod dagmm;
pub mod dcdetector_lite;
pub mod dsvdd;
pub mod iforest;
pub mod lof;
pub mod recon;
pub mod thoc_lite;
pub mod timesnet_lite;
pub mod tranad_lite;
pub mod usad;

pub use anotran_lite::AnomalyTransformerLite;
pub use common::{evaluate, evaluate_fitted, score_windows, DeepProtocol};
pub use dagmm::{Dagmm, GaussianMixture};
pub use dcdetector_lite::DcDetectorLite;
pub use dsvdd::DeepSvdd;
pub use iforest::IsolationForest;
pub use lof::Lof;
pub use recon::{DenseAutoencoder, TransformerRecon};
pub use thoc_lite::ThocLite;
pub use timesnet_lite::{dominant_period, TimesNetLite};
pub use tranad_lite::TranAdLite;
pub use usad::Usad;

use tfmae_data::Detector;

/// Builds the full Table III baseline roster with a shared protocol.
/// Names marked `*` are documented stand-ins (DESIGN.md §4/§5).
pub fn table3_roster(proto: DeepProtocol) -> Vec<Box<dyn Detector + Send>> {
    vec![
        Box::new(Lof::new(10, 1500, proto.seed)),
        Box::new(IsolationForest::new(100, 256, proto.seed)),
        Box::new(DeepSvdd::new(proto, 16)),
        Box::new(Dagmm::new(proto, 2, 3)),
        Box::new(DenseAutoencoder::new("OmniAno*", proto, 16)),
        Box::new(Usad::new(proto, 16)),
        Box::new(TranAdLite::new(proto, 1)),
        Box::new(AnomalyTransformerLite::new(proto)),
        Box::new(TimesNetLite::new(proto)),
        Box::new(DcDetectorLite::new(proto, 5)),
        Box::new(TransformerRecon::new("GPT4TS*", proto, 1)),
        Box::new(ThocLite::new(proto, 16, 4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_twelve_distinct_methods() {
        let roster = table3_roster(DeepProtocol::tiny());
        assert_eq!(roster.len(), 12);
        let mut names: Vec<String> = roster.iter().map(|d| d.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12, "names must be unique: {names:?}");
    }
}
