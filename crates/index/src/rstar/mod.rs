//! R*-tree building blocks.
//!
//! The Bayes tree reuses the insertion machinery of the R*-tree (Beckmann et
//! al., SIGMOD 1990): choose-subtree by least enlargement and topological
//! node splits that minimise margin, overlap and area.  These algorithms are
//! exposed here over plain MBR slices so the Bayes tree (which carries extra
//! per-entry statistics) and the clustering extension can both drive them.
//!
//! A small standalone [`point_tree::PointRTree`] is also provided; the
//! offline macro-clustering step of the stream-clustering extension uses it
//! for epsilon-range queries over micro-cluster centres.

pub mod choose;
pub mod point_tree;
pub mod split;

pub use choose::{choose_subtree, choose_subtree_block, choose_subtree_by};
pub use point_tree::PointRTree;
pub use split::{rstar_split, rstar_split_by, rstar_split_corners, SplitResult};
