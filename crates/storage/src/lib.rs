//! # memres-storage — device and local-filesystem models
//!
//! The hierarchical storage stack of the paper's Hyperion nodes:
//!
//! * [`RamDisk`] — tmpfs at memory bandwidth (the data-centric HDFS backing).
//! * [`Ssd`] — SATA SSD with a DRAM write buffer, a clean-block pool, and
//!   pressure-sensitive garbage collection (the §IV-C/§IV-D subject).
//! * [`LocalFs`] — a write-back page cache mounted over any device; produces
//!   the cache-plateau behaviour of Fig 8a.
//!
//! Everything follows the polled-component idiom of `memres-des`: mutate,
//! then ask `next_event()` and schedule a wake.

pub mod device;
pub mod fs;
pub mod ssd;

pub use device::{Device, IoDone, Op, RamDisk};
pub use fs::{CacheConfig, FileId, FsDone, LocalFs};
pub use ssd::{Ssd, SsdConfig};
