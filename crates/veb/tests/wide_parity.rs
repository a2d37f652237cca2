//! Black-box parity between the wide (word-parallel) and narrow
//! (hierarchical) successor-search strategies.
//!
//! The wide scan is a pure load-pattern change: on identical trees,
//! every search and claim must return exactly what the hierarchical
//! path returns, because the leaf level is the source of truth either
//! way. These tests drive both strategies through the public API and
//! demand bit-identical answers.

use veb::VebTree;

#[test]
fn wide_and_narrow_searches_agree() {
    // Universe is big enough (3 levels) that the wide path exercises
    // Hit, Exhausted, and Bounded.
    let narrow = VebTree::new(1 << 16);
    let wide = VebTree::with_wide(1 << 16, true);
    assert!(wide.is_wide() && !narrow.is_wide());
    let mut x = 99u64;
    for _ in 0..6000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let v = (x >> 16) % (1 << 16);
        match x % 6 {
            0 => assert_eq!(narrow.insert(v), wide.insert(v)),
            1 => assert_eq!(narrow.remove(v), wide.remove(v)),
            2 => assert_eq!(narrow.successor(v), wide.successor(v), "succ({v})"),
            3 => assert_eq!(narrow.find_first_from(v), wide.find_first_from(v), "from({v})"),
            4 => assert_eq!(narrow.claim_first_ge(v), wide.claim_first_ge(v), "claim({v})"),
            _ => assert_eq!(narrow.predecessor(v), wide.predecessor(v), "pred({v})"),
        }
    }
    assert_eq!(narrow.count(), wide.count());
    narrow.check_summaries().unwrap();
    wide.check_summaries().unwrap();
}

#[test]
fn wide_sparse_universe_falls_back_to_climb() {
    // One member far past the wide budget (64 words = 4096 items):
    // the scan must hand off to the climb and still find it.
    let t = VebTree::with_wide(1 << 18, true);
    t.insert((1 << 18) - 1);
    assert_eq!(t.successor(0), Some((1 << 18) - 1));
    assert_eq!(t.successor((1 << 18) - 1), Some((1 << 18) - 1));
    t.remove((1 << 18) - 1);
    assert_eq!(t.successor(0), None);
    // Everything present: scans hit immediately.
    let full = VebTree::with_wide(1 << 13, true);
    full.fill();
    assert_eq!(full.count(), 1 << 13);
    assert_eq!(full.successor(4097), Some(4097));
}
