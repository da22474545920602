//! Spatial-index substrate for the Bayes tree.
//!
//! The Bayes tree (Kranen, VLDB 2009) is "essentially an index structure":
//! an R*-tree whose entries additionally carry cluster features.  This crate
//! provides the index machinery the tree and its bulk loaders are built on:
//!
//! * [`mbr::Mbr`] — minimum bounding rectangles with the usual R*-tree
//!   geometry (area, margin, overlap, enlargement, MINDIST),
//! * [`page::PageGeometry`] — derivation of fanout `(m, M)` and leaf capacity
//!   `(l, L)` from a disk-page-size-like constraint,
//! * [`rstar`] — choose-subtree and the R* topological node split,
//!   expressed over anything that exposes an MBR, plus a small standalone
//!   point R-tree used for range queries,
//! * [`hilbert`] and [`zorder`] — d-dimensional space-filling curves used by
//!   the Hilbert/Z-curve bulk loads and by the Goldberger initial mapping,
//! * [`str_pack`] — sort-tile-recursive packing (Leutenegger et al., ICDE
//!   1997).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod hilbert;
pub mod mbr;
pub mod page;
pub mod rstar;
pub mod str_pack;
pub mod zorder;

pub use hilbert::{hilbert_index, hilbert_sort_order};
pub use mbr::Mbr;
pub use page::PageGeometry;
pub use str_pack::str_partition;
pub use zorder::{z_order_index, z_order_sort_order};
