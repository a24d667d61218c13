//! Generator determinism: the same seed gives the same op sequence, a
//! different seed a different one, for every workload.

use gridbench::gen::sequence_hash;
use gridbench::workloads::NAMES;

#[test]
fn same_seed_same_sequence_other_seed_other_sequence() {
    for name in NAMES {
        let a = sequence_hash(name, 42, 2_000).expect("known workload");
        let b = sequence_hash(name, 42, 2_000).expect("known workload");
        let c = sequence_hash(name, 43, 2_000).expect("known workload");
        assert_eq!(a, b, "{name}: same seed must replay");
        assert_ne!(a, c, "{name}: another seed must differ");
    }
    assert!(sequence_hash("no_such_workload", 1, 10).is_none());
}
