//! Configuration: consistency model, write trapping, write collection.

use std::fmt;

use dsm_sim::CostModel;

use crate::recovery::FaultPlan;
use crate::transport::TransportKind;
use crate::DsmError;

/// The consistency model (Section 3 of the paper, plus home-based LRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Entry consistency (Midway): shared data is bound to locks, only the
    /// bound data is made consistent at an acquire, update protocol.
    Ec,
    /// Lazy release consistency (TreadMarks): no binding, all shared data is
    /// made consistent lazily, invalidate protocol with multiple writers,
    /// data collected from the writers at the miss (homeless).
    Lrc,
    /// Home-based lazy release consistency: same ordering layer as
    /// [`Model::Lrc`], but every page has a statically assigned home node;
    /// releasers eagerly flush their modifications to the home and an access
    /// miss fetches the whole page from the home in one round trip.
    Hlrc,
    /// Adaptive LRC: the [`Model::Lrc`] ordering layer under an online
    /// per-page placement controller that migrates each page between
    /// homeless diffing, home-based flush (home at the dominant writer) and
    /// single-writer pinning, driven by the page's observed sharing pattern.
    Adaptive,
}

impl Model {
    /// Short label ("EC" / "LRC" / "HLRC" / "ALRC").
    pub fn label(self) -> &'static str {
        match self {
            Model::Ec => "EC",
            Model::Lrc => "LRC",
            Model::Hlrc => "HLRC",
            Model::Adaptive => "ALRC",
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The write-trapping mechanism (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trapping {
    /// Compiler instrumentation: every shared store also sets a software
    /// dirty bit (one word of memory per block).
    Instrumentation,
    /// Twinning: an unmodified copy of the object/page is made (at write-lock
    /// acquire for small EC objects, at a write-protection fault otherwise)
    /// and later compared against the current copy.
    Twinning,
}

impl Trapping {
    /// Short label used in implementation names ("ci" / "tw").
    pub fn label(self) -> &'static str {
        match self {
            Trapping::Instrumentation => "ci",
            Trapping::Twinning => "tw",
        }
    }
}

impl fmt::Display for Trapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The write-collection mechanism (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collection {
    /// Per-block timestamps (EC: lock incarnation numbers, LRC: `(processor,
    /// interval)` pairs); the responder scans timestamps and sends newer
    /// blocks plus run-length encoded timestamps.
    Timestamps,
    /// Run-length encoded diffs, created lazily and saved for future
    /// transmission.
    Diffs,
}

impl Collection {
    /// Short label used in implementation names ("time" / "diff").
    pub fn label(self) -> &'static str {
        match self {
            Collection::Timestamps => "time",
            Collection::Diffs => "diff",
        }
    }
}

impl fmt::Display for Collection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One of the implementations of the study: a consistency model crossed with
/// a write-trapping and a write-collection mechanism.  The six combinations
/// of the paper's Table 1 (EC and homeless LRC) are extended with the three
/// home-based LRC variants and the three adaptive LRC variants, twelve
/// implementations in total.
///
/// The combination of compiler instrumentation and diffing is rejected, as in
/// the paper, "because its memory requirements appear prohibitive" (it would
/// need both the software dirty bits and the diffs).
///
/// # Examples
///
/// ```
/// use dsm_core::{Collection, ImplKind, Model, Trapping};
///
/// let ec_ci = ImplKind::new(Model::Ec, Trapping::Instrumentation, Collection::Timestamps)?;
/// assert_eq!(ec_ci.name(), "EC-ci");
///
/// // Table 1's six plus the three HLRC and three adaptive variants:
/// assert_eq!(ImplKind::all().len(), 12);
///
/// // Names round-trip through the parser used by the bench bins' --impls.
/// for kind in ImplKind::all() {
///     assert_eq!(ImplKind::from_name(&kind.name())?, kind);
/// }
/// # Ok::<(), dsm_core::DsmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImplKind {
    model: Model,
    trapping: Trapping,
    collection: Collection,
}

impl ImplKind {
    /// Creates an implementation descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`DsmError::UnsupportedCombination`] for compiler
    /// instrumentation combined with diffing.
    pub fn new(model: Model, trapping: Trapping, collection: Collection) -> Result<Self, DsmError> {
        if trapping == Trapping::Instrumentation && collection == Collection::Diffs {
            return Err(DsmError::UnsupportedCombination);
        }
        Ok(ImplKind {
            model,
            trapping,
            collection,
        })
    }

    /// EC with compiler instrumentation and timestamps (the Midway design).
    pub fn ec_ci() -> Self {
        ImplKind {
            model: Model::Ec,
            trapping: Trapping::Instrumentation,
            collection: Collection::Timestamps,
        }
    }

    /// EC with twinning and timestamps.
    pub fn ec_time() -> Self {
        ImplKind {
            model: Model::Ec,
            trapping: Trapping::Twinning,
            collection: Collection::Timestamps,
        }
    }

    /// EC with twinning and diffs (improves on the Midway VM implementation).
    pub fn ec_diff() -> Self {
        ImplKind {
            model: Model::Ec,
            trapping: Trapping::Twinning,
            collection: Collection::Diffs,
        }
    }

    /// LRC with compiler instrumentation and timestamps (hierarchical dirty
    /// bits).
    pub fn lrc_ci() -> Self {
        ImplKind {
            model: Model::Lrc,
            trapping: Trapping::Instrumentation,
            collection: Collection::Timestamps,
        }
    }

    /// LRC with twinning and timestamps.
    pub fn lrc_time() -> Self {
        ImplKind {
            model: Model::Lrc,
            trapping: Trapping::Twinning,
            collection: Collection::Timestamps,
        }
    }

    /// LRC with twinning and diffs (the TreadMarks design).
    pub fn lrc_diff() -> Self {
        ImplKind {
            model: Model::Lrc,
            trapping: Trapping::Twinning,
            collection: Collection::Diffs,
        }
    }

    /// Home-based LRC with compiler instrumentation and timestamps.
    pub fn hlrc_ci() -> Self {
        ImplKind {
            model: Model::Hlrc,
            trapping: Trapping::Instrumentation,
            collection: Collection::Timestamps,
        }
    }

    /// Home-based LRC with twinning and timestamps.
    pub fn hlrc_time() -> Self {
        ImplKind {
            model: Model::Hlrc,
            trapping: Trapping::Twinning,
            collection: Collection::Timestamps,
        }
    }

    /// Home-based LRC with twinning and diffs (the Princeton HLRC design).
    pub fn hlrc_diff() -> Self {
        ImplKind {
            model: Model::Hlrc,
            trapping: Trapping::Twinning,
            collection: Collection::Diffs,
        }
    }

    /// Adaptive LRC with compiler instrumentation and timestamps.
    pub fn adaptive_ci() -> Self {
        ImplKind {
            model: Model::Adaptive,
            trapping: Trapping::Instrumentation,
            collection: Collection::Timestamps,
        }
    }

    /// Adaptive LRC with twinning and timestamps.
    pub fn adaptive_time() -> Self {
        ImplKind {
            model: Model::Adaptive,
            trapping: Trapping::Twinning,
            collection: Collection::Timestamps,
        }
    }

    /// Adaptive LRC with twinning and diffs.
    pub fn adaptive_diff() -> Self {
        ImplKind {
            model: Model::Adaptive,
            trapping: Trapping::Twinning,
            collection: Collection::Diffs,
        }
    }

    /// All twelve implementations: the paper's six (Table-1 order) followed
    /// by the three home-based and the three adaptive LRC variants.
    pub fn all() -> [ImplKind; 12] {
        [
            Self::ec_ci(),
            Self::ec_time(),
            Self::ec_diff(),
            Self::lrc_ci(),
            Self::lrc_time(),
            Self::lrc_diff(),
            Self::hlrc_ci(),
            Self::hlrc_time(),
            Self::hlrc_diff(),
            Self::adaptive_ci(),
            Self::adaptive_time(),
            Self::adaptive_diff(),
        ]
    }

    /// The three EC implementations (Table 4 columns).
    pub fn ec_all() -> [ImplKind; 3] {
        [Self::ec_ci(), Self::ec_time(), Self::ec_diff()]
    }

    /// The three homeless LRC implementations (Table 5 columns).
    pub fn lrc_all() -> [ImplKind; 3] {
        [Self::lrc_ci(), Self::lrc_time(), Self::lrc_diff()]
    }

    /// The three home-based LRC implementations.
    pub fn hlrc_all() -> [ImplKind; 3] {
        [Self::hlrc_ci(), Self::hlrc_time(), Self::hlrc_diff()]
    }

    /// The three adaptive LRC implementations.
    pub fn adaptive_all() -> [ImplKind; 3] {
        [
            Self::adaptive_ci(),
            Self::adaptive_time(),
            Self::adaptive_diff(),
        ]
    }

    /// Parses an implementation from its table name (`EC-ci`, `LRC-diff`,
    /// `ALRC-time`, ...), the inverse of [`ImplKind::name`]/`Display`.  Used
    /// by the bench bins' `--impls` filter.  Matching is case-insensitive
    /// (`lrc-diff` and `HLRC-TIME` both parse), so shell users never trip
    /// over the tables' mixed-case spellings.
    ///
    /// # Errors
    ///
    /// Returns [`DsmError::InvalidConfig`] naming the valid spellings if
    /// `name` matches none of the twelve implementations.
    pub fn from_name(name: &str) -> Result<Self, DsmError> {
        Self::all()
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let valid: Vec<String> = Self::all().iter().map(|k| k.name()).collect();
                DsmError::InvalidConfig(format!(
                    "unknown implementation '{name}' (expected one of: {})",
                    valid.join(", ")
                ))
            })
    }

    /// The consistency model.
    pub fn model(self) -> Model {
        self.model
    }

    /// The write-trapping mechanism.
    pub fn trapping(self) -> Trapping {
        self.trapping
    }

    /// The write-collection mechanism.
    pub fn collection(self) -> Collection {
        self.collection
    }

    /// True if diffs are created lazily (twinning with diffs, Section 5):
    /// the twin compare that builds a diff is paid by the first request for
    /// it, not at the release.  Every other implementation pays its compare
    /// at the release (none under instrumentation, which compares no words).
    pub(crate) fn diffs_lazily(self) -> bool {
        self.trapping == Trapping::Twinning && self.collection == Collection::Diffs
    }

    /// The name used in the paper's tables: `EC-ci`, `EC-time`, `EC-diff`,
    /// `LRC-ci`, `LRC-time`, `LRC-diff`, plus `HLRC-*` for the home-based
    /// family and `ALRC-*` for the adaptive family.
    pub fn name(self) -> String {
        let suffix = match (self.trapping, self.collection) {
            (Trapping::Instrumentation, _) => "ci",
            (Trapping::Twinning, Collection::Timestamps) => "time",
            (Trapping::Twinning, Collection::Diffs) => "diff",
        };
        format!("{}-{}", self.model.label(), suffix)
    }
}

impl fmt::Display for ImplKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Configuration of one DSM run.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Number of simulated processors (the paper uses 8).
    pub nprocs: usize,
    /// Which of the twelve implementations to run.
    pub kind: ImplKind,
    /// The cost model converting protocol events into simulated time.
    pub cost: CostModel,
    /// Objects whose bound data is at most this many bytes are twinned
    /// eagerly at write-lock acquire instead of via copy-on-write protection
    /// faults (the EC twinning improvement over Midway, Section 4.2).  The
    /// paper draws the boundary at the page size.
    pub ec_small_object_limit: usize,
    /// Apply the loop-splitting compiler optimisation of Section 4.1/8.1,
    /// which batches dirty-bit stores and reduces their per-write cost.
    pub ci_loop_optimization: bool,
    /// Which transport backend carries publish frames during the run.  The
    /// default [`TransportKind::Simulated`] replicates nothing and keeps
    /// every result byte-identical to the pre-transport runtime; the real
    /// backends additionally rebuild replicas over channels or sockets and
    /// verify them against the engines' master copies.
    pub transport: TransportKind,
    /// Deterministic crash schedule for the checkpoint/recovery subsystem
    /// (see `DESIGN.md` §8 "Checkpoint & recovery").  The default
    /// [`FaultPlan::None`] disables checkpointing entirely and keeps every
    /// result byte-identical to a fault-free build; any other plan makes
    /// every node checkpoint at each barrier cut and kills the named node at
    /// the named barrier, after which the runtime rolls it back to its last
    /// checkpoint and replays it to rejoin the waiting peers.
    pub fault: FaultPlan,
}

impl DsmConfig {
    /// Configuration matching the paper's environment: 8 processors on the
    /// 1996 ATM-LAN cost model, with eager small-object twinning and the
    /// dirty-bit loop-splitting optimisation on.
    pub fn paper(kind: ImplKind) -> Self {
        DsmConfig {
            nprocs: 8,
            kind,
            cost: CostModel::atm_lan_1996(),
            ec_small_object_limit: dsm_mem::PAGE_SIZE,
            ci_loop_optimization: true,
            transport: TransportKind::Simulated,
            fault: FaultPlan::None,
        }
    }

    /// Same as [`DsmConfig::paper`] but with an explicit processor count.
    pub fn with_procs(kind: ImplKind, nprocs: usize) -> Self {
        DsmConfig {
            nprocs,
            ..Self::paper(kind)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the processor count is zero, a socket transport
    /// has no replica peer, or a fault plan kills a node the run lacks.
    pub fn validate(&self) -> Result<(), DsmError> {
        if self.nprocs == 0 {
            return Err(DsmError::InvalidConfig("nprocs must be at least 1".into()));
        }
        if matches!(&self.transport, TransportKind::SocketLocal(0))
            || matches!(&self.transport, TransportKind::SocketRemote(addrs) if addrs.is_empty())
        {
            return Err(DsmError::InvalidConfig(
                "socket transport needs at least one peer".into(),
            ));
        }
        if let FaultPlan::KillAt { node, .. } = self.fault {
            if node as usize >= self.nprocs {
                return Err(DsmError::InvalidConfig(format!(
                    "fault plan kills node {node} but the run has {} processors",
                    self.nprocs
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_plus_diff_is_rejected() {
        for model in [Model::Ec, Model::Lrc, Model::Hlrc, Model::Adaptive] {
            let err = ImplKind::new(model, Trapping::Instrumentation, Collection::Diffs);
            assert!(matches!(err, Err(DsmError::UnsupportedCombination)));
        }
    }

    #[test]
    fn family_names() {
        let names: Vec<String> = ImplKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "EC-ci",
                "EC-time",
                "EC-diff",
                "LRC-ci",
                "LRC-time",
                "LRC-diff",
                "HLRC-ci",
                "HLRC-time",
                "HLRC-diff",
                "ALRC-ci",
                "ALRC-time",
                "ALRC-diff"
            ]
        );
    }

    #[test]
    fn from_name_roundtrips_with_display() {
        for kind in ImplKind::all() {
            assert_eq!(ImplKind::from_name(&kind.to_string()).unwrap(), kind);
            // Case-insensitive: lowercase and uppercase spellings also parse.
            let lower = kind.to_string().to_ascii_lowercase();
            let upper = kind.to_string().to_ascii_uppercase();
            assert_eq!(ImplKind::from_name(&lower).unwrap(), kind);
            assert_eq!(ImplKind::from_name(&upper).unwrap(), kind);
        }
        assert!(ImplKind::from_name("").is_err());
        assert!(
            ImplKind::from_name("LRC").is_err(),
            "model alone is not an impl"
        );
        let msg = ImplKind::from_name("bogus").unwrap_err().to_string();
        assert!(msg.contains("HLRC-diff"), "error lists the valid names");
    }

    #[test]
    fn accessors_are_consistent() {
        let k = ImplKind::lrc_diff();
        assert_eq!(k.model(), Model::Lrc);
        assert_eq!(k.trapping(), Trapping::Twinning);
        assert_eq!(k.collection(), Collection::Diffs);
        assert_eq!(k.to_string(), "LRC-diff");
    }

    #[test]
    fn model_family_subsets() {
        assert!(ImplKind::ec_all().iter().all(|k| k.model() == Model::Ec));
        assert!(ImplKind::lrc_all().iter().all(|k| k.model() == Model::Lrc));
        assert!(ImplKind::hlrc_all()
            .iter()
            .all(|k| k.model() == Model::Hlrc));
        assert!(ImplKind::adaptive_all()
            .iter()
            .all(|k| k.model() == Model::Adaptive));
    }

    #[test]
    fn paper_config_defaults() {
        let cfg = DsmConfig::paper(ImplKind::ec_time());
        assert_eq!(cfg.nprocs, 8);
        assert_eq!(cfg.ec_small_object_limit, dsm_mem::PAGE_SIZE);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = DsmConfig::paper(ImplKind::ec_time());
        cfg.nprocs = 0;
        assert!(cfg.validate().is_err());
        for transport in [
            TransportKind::SocketLocal(0),
            TransportKind::SocketRemote(vec![]),
        ] {
            let mut cfg = DsmConfig::with_procs(ImplKind::ec_time(), 2);
            cfg.transport = transport.clone();
            assert!(
                matches!(cfg.validate(), Err(DsmError::InvalidConfig(_))),
                "{transport:?} has no peer"
            );
        }
    }

    #[test]
    fn fault_plans_are_bounds_checked() {
        let mut cfg = DsmConfig::with_procs(ImplKind::ec_time(), 4);
        cfg.fault = FaultPlan::KillAt {
            node: 3,
            barrier: 1,
        };
        assert!(cfg.validate().is_ok());
        cfg.fault = FaultPlan::KillAt {
            node: 4,
            barrier: 1,
        };
        assert!(cfg.validate().is_err(), "victim must exist");
    }
}
