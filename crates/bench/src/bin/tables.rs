//! Tables 4–6: execution times for every write-trapping / collection
//! combination, one table per protocol family — EC (Table 4), homeless LRC
//! (Table 5), and beyond the paper home-based LRC and the adaptive data
//! policy (Table 6).  Together they cover all twelve members of the family;
//! `--impls` narrows the output to any subset, e.g. one family.

use dsm_bench::{check, print_family_times, table_apps, HarnessOpts};
use dsm_core::ImplKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let apps = table_apps();
    let tables = [
        (
            "Table 4: Execution Times for Write Trapping / Collection Combinations in EC",
            ImplKind::ec_all(),
        ),
        (
            "Table 5: Execution Times for Write Trapping / Collection Combinations in LRC",
            ImplKind::lrc_all(),
        ),
        (
            "Table 6: Execution Times for Write Trapping / Collection Combinations in HLRC",
            ImplKind::hlrc_all(),
        ),
        (
            "Table 6 (continued): the Adaptive Data Policy (ALRC) under the Same Combinations",
            ImplKind::adaptive_all(),
        ),
    ];
    for (title, family) in tables {
        print_family_times(title, &family, &apps, &opts, check);
    }
}
