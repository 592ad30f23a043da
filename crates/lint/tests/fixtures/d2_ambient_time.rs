// Fixture: rule D2 (clippy `disallowed_types`) must flag ambient time
// sources.
use std::time::Instant;
use std::time::SystemTime;

pub fn timed_repair() -> u64 {
    let start = Instant::now();
    let _wall = SystemTime::now();
    start.elapsed().as_micros() as u64
}
