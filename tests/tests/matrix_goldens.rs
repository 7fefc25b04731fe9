//! SOR at tiny scale on 4 processors under all twelve implementations: every
//! run verifies against the sequential output, and the homeless-LRC and
//! adaptive-LRC families reproduce their committed golden lines
//! (`tests/golden/matrix_smoke_lrc.txt` and `matrix_smoke_alrc.txt`) —
//! regenerate with `DSM_BLESS_GOLDEN=1` after an intentional behaviour
//! change.
//!
//! SOR under the LRC family is barrier-structured, so its report is
//! deterministic at any processor count, and the adaptive controller decides
//! from entitlement-visible records only, so its golden is just as stable
//! (see `DESIGN.md`, "Determinism" and "Adaptive policy").

use std::fmt::Write as _;

use dsm_apps::{run_app, App, Scale};
use dsm_core::{ImplKind, Model};
use dsm_tests::{canon_time, check_golden};

/// One implementation's canonical line: verification, the aggregate
/// traffic and each node's messages/bytes/access misses, followed by its
/// simulated clocks where they are pinned ([`canon_time`]).
fn canon_line(kind: ImplKind) -> String {
    let r = run_app(App::Sor, kind, 4, Scale::Tiny);
    assert!(r.verified, "SOR under {kind} failed verification");
    let mut line = format!(
        "impl={} verified={} traffic: {}",
        kind.name(),
        r.verified,
        r.traffic
    );
    for i in 0..r.stats.num_nodes() {
        let s = r.stats.node(i);
        write!(
            line,
            " n{i}={}/{}/{}",
            s.messages(),
            s.bytes(),
            s.access_misses
        )
        .expect("write to string");
    }
    line.push('\n');
    line.push_str(&canon_time(kind, 4, r.time, &r.node_times));
    line
}

#[test]
fn sor_under_every_impl_matches_the_family_goldens() {
    let mut lrc = String::new();
    let mut alrc = String::new();
    for kind in ImplKind::all() {
        let line = canon_line(kind);
        match kind.model() {
            Model::Lrc => lrc.push_str(&line),
            Model::Adaptive => alrc.push_str(&line),
            _ => {}
        }
    }
    check_golden("matrix_smoke_lrc.txt", &lrc);
    check_golden("matrix_smoke_alrc.txt", &alrc);
}
