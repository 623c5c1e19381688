//! # memres-des — discrete-event simulation kernel
//!
//! The foundation of the `memres` stack: a deterministic event calendar and
//! drive loop ([`Simulation`]), a processor-sharing fluid resource
//! ([`PsResource`]) reused by every storage and server model, and the small
//! statistics toolkit the metrics layer is built on.
//!
//! Design notes:
//! * Time is integer nanoseconds ([`SimTime`]); equal-time events fire in
//!   insertion order, so runs are bit-for-bit reproducible.
//! * Components that must retract scheduled events use the *stale-event*
//!   idiom with [`Gen`] generation counters instead of calendar surgery.
//! * Simulation-visible keyed state is a `Vec` indexed by a dense id or a
//!   `BTreeMap`/`BTreeSet`: no container iterates in hash order (DESIGN.md
//!   §4.10 R1).

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

pub mod bytes;
pub mod json;
pub mod ps;
pub mod queue;
pub mod sim;
pub mod stats;
pub mod time;

pub use bytes::Bytes;
pub use ps::{JobKey, PsResource};
pub use queue::{EventQueue, QueueStats};
pub use sim::{EngineStats, Gen, Model, Outbox, Simulation};
pub use stats::{Cdf, LogHistogram};
pub use time::{SimDuration, SimTime};

/// SplitMix64 (Steele, Lea & Flood 2014): advance `state` by the golden
/// gamma and return its mixed value. The one generator every seeded draw
/// uses — arrival gaps, fault plans, block placement, fuzz specs — so each
/// is a pure function of its seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes-per-unit helpers so model parameters read like the paper's units.
pub mod units {
    pub const KB: f64 = 1024.0;
    pub const MB: f64 = 1024.0 * 1024.0;
    pub const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    pub const TB: f64 = 1024.0 * GB;

    pub const KB_U: u64 = 1024;
    pub const MB_U: u64 = 1024 * 1024;
    pub const GB_U: u64 = 1024 * 1024 * 1024;
    pub const TB_U: u64 = 1024 * GB_U;
}

#[cfg(test)]
mod splitmix_tests {
    /// The reference generator's first outputs from state 0.
    #[test]
    fn splitmix64_known_answers() {
        let mut s = 0;
        let got: Vec<u64> = (0..4).map(|_| super::splitmix64(&mut s)).collect();
        assert_eq!(
            got,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
            ]
        );
        assert_eq!(s, 4u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
}

/// One `#[expect]` per `clippy.toml` path: dropping a line there fails gate
/// stage 3 as an unfulfilled expectation, so the lists cannot quietly
/// shrink.
#[cfg(test)]
mod lint_canaries {
    macro_rules! canaries {
        ($lint:ident: $($use:expr),+ $(,)?) => {$(
            #[expect(clippy::$lint, reason = "canary: clippy.toml must keep listing this")]
            const _: fn() = || {
                let _ = $use;
            };
        )+};
    }
    use std::{collections, fs, net, time};
    canaries!(disallowed_types:
        None::<collections::HashMap<(), ()>>, None::<collections::HashSet<()>>,
        None::<time::Instant>, None::<time::SystemTime>,
        None::<fs::File>, None::<fs::OpenOptions>,
        None::<net::TcpStream>, None::<net::TcpListener>, None::<net::UdpSocket>,
    );
    canaries!(disallowed_methods:
        time::UNIX_EPOCH.elapsed(), fs::canonicalize::<&str>, fs::copy::<&str, &str>,
        fs::create_dir::<&str>, fs::create_dir_all::<&str>, fs::exists::<&str>,
        fs::hard_link::<&str, &str>, fs::metadata::<&str>, fs::read::<&str>, fs::read_dir::<&str>,
        fs::read_link::<&str>, fs::read_to_string::<&str>, fs::remove_dir::<&str>,
        fs::remove_dir_all::<&str>, fs::remove_file::<&str>, fs::rename::<&str, &str>,
        fs::set_permissions::<&str>, fs::symlink_metadata::<&str>, fs::write::<&str, &str>,
    );
}
