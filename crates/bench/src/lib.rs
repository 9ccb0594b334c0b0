//! Shared plumbing for the figure/table regeneration binaries.
//!
//! `um-sweep` regenerates the figures and tables defined in
//! [`scenario::registry`]; every other binary regenerates one of the
//! paper's remaining tables or figures:
//!
//! ```text
//! cargo run --release -p um-bench --bin um-sweep -- fig14
//! cargo run --release -p um-bench --bin fig15
//! ```
//!
//! Binaries honour four environment variables:
//!
//! - `UM_SCALE`: `quick` (seconds per figure, noisier) or `full`
//!   (default; the scale used for EXPERIMENTS.md).
//! - `UM_SEED`: master seed (default 42).
//! - `UM_THREADS`: sweep worker-pool size (default: all cores; `1`
//!   forces serial execution). Results are bit-identical at any value.
//! - `UM_SANITIZER`: set to `1` to require the runtime invariant
//!   checkers. The checkers only exist when the binary was built with
//!   `--features sim-sanitizer`; a binary built without it refuses to
//!   run rather than silently skipping the checks.

use umanycore::experiments::cluster::ClusterScale;
use umanycore::experiments::Scale;

pub mod benchjson;
pub mod codec;
pub mod engine;
pub mod scenario;

/// Reads the run scale from `UM_SCALE`/`UM_SEED`.
pub fn scale_from_env() -> Scale {
    scale_from_values(
        std::env::var("UM_SCALE").ok().as_deref(),
        std::env::var("UM_SEED").ok().as_deref(),
    )
}

/// [`scale_from_env`] with the environment values passed explicitly, so
/// tests can exercise the parsing without depending on (or mutating)
/// process-global state.
///
/// # Panics
///
/// Panics when `seed` is set but not an integer.
pub fn scale_from_values(scale: Option<&str>, seed: Option<&str>) -> Scale {
    let mut out = match scale {
        Some("quick") => Scale::quick(),
        _ => Scale::default(),
    };
    if let Some(seed) = seed {
        out.seed = seed.parse().expect("UM_SEED must be an integer");
    }
    out
}

/// Reads the rack scale from `UM_SCALE`/`UM_SEED` (the cluster
/// binaries' analogue of [`scale_from_env`]).
pub fn cluster_scale_from_env() -> ClusterScale {
    cluster_scale_from_values(
        std::env::var("UM_SCALE").ok().as_deref(),
        std::env::var("UM_SEED").ok().as_deref(),
    )
}

/// [`cluster_scale_from_env`] with the environment values passed
/// explicitly, for tests.
///
/// # Panics
///
/// Panics when `seed` is set but not an integer.
pub fn cluster_scale_from_values(scale: Option<&str>, seed: Option<&str>) -> ClusterScale {
    let mut out = match scale {
        Some("quick") => ClusterScale::quick(),
        _ => ClusterScale::full(),
    };
    if let Some(seed) = seed {
        out.seed = seed.parse().expect("UM_SEED must be an integer");
    }
    out
}

/// Honours `UM_SANITIZER` without printing a figure header: announces
/// the runtime checkers on stderr when they are compiled in, and refuses
/// to run when they are requested but absent. Binaries whose stdout
/// comes from [`scenario::run`] (which renders its own header) call this
/// instead of [`banner`].
///
/// # Panics
///
/// Panics when `UM_SANITIZER` requests the runtime checkers but the
/// binary was built without the `sim-sanitizer` feature.
pub fn sanitizer_check() {
    match sanitizer_status(
        std::env::var("UM_SANITIZER").ok().as_deref(),
        cfg!(feature = "sim-sanitizer"),
    ) {
        Ok(true) => eprintln!("um-bench: sim-sanitizer active (runtime invariant checkers on)"),
        Ok(false) => {}
        Err(msg) => panic!("{msg}"),
    }
}

/// The standard figure header as a string (what [`banner`] prints).
pub fn header_text(figure: &str, caption: &str) -> String {
    format!("== {figure} ==\n{caption}\n\n")
}

/// Prints the standard figure header, after honouring `UM_SANITIZER`.
///
/// # Panics
///
/// Panics when `UM_SANITIZER` requests the runtime checkers but the
/// binary was built without the `sim-sanitizer` feature.
pub fn banner(figure: &str, caption: &str) {
    sanitizer_check();
    print!("{}", header_text(figure, caption));
}

/// Resolves the `UM_SANITIZER` request against the compiled feature set:
/// `Ok(true)` when the checkers are compiled in, `Ok(false)` when not
/// requested, `Err` when requested but unavailable.
///
/// # Errors
///
/// Returns the refusal message when `var` requests the checkers but the
/// binary was compiled without them.
pub fn sanitizer_status(var: Option<&str>, compiled: bool) -> Result<bool, String> {
    let requested = var.is_some_and(|v| !v.is_empty() && v != "0");
    if requested && !compiled {
        return Err(
            "UM_SANITIZER is set but this binary was built without the `sim-sanitizer` \
             feature; rebuild with `cargo run --release --features sim-sanitizer -p um-bench ...`"
                .to_string(),
        );
    }
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_full() {
        let s = scale_from_values(None, None);
        assert_eq!(s, Scale::default());
        assert!(s.horizon_us >= Scale::quick().horizon_us);
    }

    #[test]
    fn quick_scale_selected_by_value() {
        assert_eq!(scale_from_values(Some("quick"), None), Scale::quick());
        // Unknown values fall back to the full scale.
        assert_eq!(scale_from_values(Some("huge"), None), Scale::default());
    }

    #[test]
    fn seed_override_applies() {
        let s = scale_from_values(None, Some("7"));
        assert_eq!(s.seed, 7);
        assert_eq!(
            Scale { seed: 42, ..s },
            Scale::default(),
            "seed is the only field UM_SEED changes"
        );
    }

    #[test]
    #[should_panic(expected = "UM_SEED must be an integer")]
    fn non_integer_seed_rejected() {
        scale_from_values(None, Some("forty-two"));
    }

    #[test]
    fn cluster_scale_parsing_mirrors_scale_parsing() {
        assert_eq!(cluster_scale_from_values(None, None), ClusterScale::full());
        assert_eq!(
            cluster_scale_from_values(Some("quick"), None),
            ClusterScale::quick()
        );
        let s = cluster_scale_from_values(Some("quick"), Some("9"));
        assert_eq!(s.seed, 9);
        assert_eq!(ClusterScale { seed: 42, ..s }, ClusterScale::quick());
    }

    #[test]
    fn sanitizer_request_without_feature_refused() {
        assert!(sanitizer_status(Some("1"), false).is_err());
        assert!(sanitizer_status(Some("yes"), false).is_err());
    }

    #[test]
    fn sanitizer_not_requested_reports_compile_state() {
        assert_eq!(sanitizer_status(None, false), Ok(false));
        assert_eq!(sanitizer_status(Some("0"), false), Ok(false));
        assert_eq!(sanitizer_status(Some(""), false), Ok(false));
        assert_eq!(sanitizer_status(None, true), Ok(true));
        assert_eq!(sanitizer_status(Some("1"), true), Ok(true));
    }
}
