//! # dance-relation — relational substrate for DANCE
//!
//! In-memory, column-oriented relational tables used by every other DANCE
//! subsystem. The design goals, in order:
//!
//! 1. **Exact semantics** for the operations the paper's definitions depend on:
//!    typed values with NULLs, equi-joins (inner and full-outer), projections,
//!    and grouped counts over attribute sets.
//! 2. **Cheap value identity**: strings are dictionary-encoded per column and
//!    shared via `Arc<str>`, attribute names are interned process-wide into
//!    [`AttrId`]s so that attribute sets are small sorted id vectors.
//! 3. **No external dependencies**: hashing is an in-house FxHash-style 64-bit
//!    hasher ([`hash`]), CSV I/O is a minimal reader/writer ([`csv`]).
//!
//! Joins follow the paper's natural-join convention: two instances join on a
//! chosen subset `J` of their *shared attribute names* (Definition 4.2 keys
//! AS-edges by `J = AS(v_i) ∩ AS(v_j)`).
//!
//! ```
//! use dance_relation::{Table, Value, AttrSet, ValueType};
//! use dance_relation::join::{hash_join, JoinKind};
//!
//! let left = Table::from_rows(
//!     "zip",
//!     &[("zipcode", ValueType::Str), ("state", ValueType::Str)],
//!     vec![
//!         vec![Value::str("07003"), Value::str("NJ")],
//!         vec![Value::str("10001"), Value::str("NY")],
//!     ],
//! ).unwrap();
//! let right = Table::from_rows(
//!     "disease",
//!     &[("state", ValueType::Str), ("cases", ValueType::Int)],
//!     vec![vec![Value::str("NJ"), Value::Int(400)]],
//! ).unwrap();
//! let on = AttrSet::from_names(["state"]);
//! let joined = hash_join(&left, &right, &on, JoinKind::Inner).unwrap();
//! assert_eq!(joined.num_rows(), 1);
//! ```

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod delta;
pub mod error;
pub mod group;
pub mod hash;
pub mod interner;
pub mod join;
pub mod schema;
pub mod sel;
pub mod sym;
pub mod table;
pub mod value;

pub use bitmap::Bitmap;
pub use column::{Column, ColumnBuilder, ColumnCells, ColumnData, StrDict, StrDictReader};
/// The coarse work-item executor, re-exported for the crates that name it
/// (the join graph's re-weigh round runs over it); every kernel in this
/// crate runs sequentially.
pub use dance_executor::Executor;
pub use delta::TableDelta;
pub use error::{RelationError, Result};
pub use group::{group_ids, Grouping};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use interner::InternerRegistry;
pub use schema::{attr, AttrId, AttrSet, Attribute, Schema};
pub use sel::{
    join_sel, join_tree_late, materialize_join, pair_sel, HopPlan, JoinSel, PairSel, TreeJoin,
    TreeSel, NO_ROW,
};
pub use sym::{sym_counts, sym_joinable, SymCounts, SymKey, SymMatch, SymTranslator};
pub use table::Table;
pub use value::{Value, ValueType};
