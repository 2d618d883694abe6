//! The path arena after a real rip-up: paths that grew out of their
//! pattern route's span leave dead cells behind, never more than the live
//! ones, and a report's paths compare equal to the same paths laid out
//! afresh.

mod common;

use common::{congested, router};
use puffer_route::path::Paths;
use puffer_route::{GlobalRouter, RouteReport, RouterConfig};

#[test]
fn rerouted_paths_keep_the_arena_compact_and_compare_by_path() {
    let (design, placement) = congested();
    let pattern = GlobalRouter::new(
        &design,
        RouterConfig {
            max_rounds: 0,
            ..RouterConfig::default()
        },
    )
    .try_route(&design, &placement)
    .unwrap();
    let routed = router(&design, 1).try_route(&design, &placement).unwrap();
    let lengths = |r: &RouteReport| r.paths.iter().map(|p| p.len()).collect::<Vec<_>>();
    let (before, after) = (lengths(&pattern), lengths(&routed));
    assert!(
        before.iter().zip(&after).any(|(b, a)| a > b),
        "no path grew"
    );

    let paths = &routed.paths;
    assert!(paths.dead_cells() > 0, "no changed path left its span");
    assert!(paths.dead_cells() <= paths.live_cells());
    assert_eq!(paths.live_cells(), after.iter().sum::<usize>());

    // The same paths pushed into a fresh arena: another layout, equal.
    let mut fresh = Paths::new(paths.nx());
    for p in paths.iter() {
        fresh.push(&p.cells().collect::<Vec<_>>());
    }
    assert_eq!(fresh.dead_cells(), 0);
    assert!(fresh == *paths);
    fresh.set(0, &[(0, 0), (1, 0)]);
    assert!(fresh != *paths, "equality must see the paths");
}
