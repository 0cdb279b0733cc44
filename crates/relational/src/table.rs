//! Columnar tables.

use crate::dict::ColumnDict;
use crate::schema::{DataType, Schema};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Errors from table construction and access.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// A row's length differs from the schema's field count.
    ArityMismatch {
        /// Expected field count.
        expected: usize,
        /// Provided cell count.
        got: usize,
    },
    /// A cell's type does not match its column's declared type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared type.
        expected: DataType,
        /// Provided value's type name.
        got: &'static str,
    },
    /// A referenced column does not exist.
    UnknownColumn {
        /// The missing name.
        name: String,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} cells, schema has {expected} fields")
            }
            TableError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(f, "column {column} expects {expected}, got {got}"),
            TableError::UnknownColumn { name } => write!(f, "unknown column {name}"),
        }
    }
}

impl std::error::Error for TableError {}

/// A columnar table: the relational substrate the `LLM(...)` operator runs
/// over.
///
/// Besides the stored values a table caches, per column and built on first
/// use, the dictionary the prompt encoder works from (row → dense value
/// code, plus each distinct value's fragment tokens and content hash; see
/// `docs/ARCHITECTURE.md`, "Host-side encode path"). The cache is derived
/// state: equality ignores it, [`push_row`](Table::push_row) drops it, and
/// [`select_rows`](Table::select_rows)/[`head`](Table::head) hand it down.
///
/// # Examples
///
/// ```
/// use llmqo_relational::{Schema, Table, Value};
/// let mut t = Table::new(Schema::of_strings(&["review", "title"]));
/// t.push_row(vec!["great".into(), "Anvil".into()]).unwrap();
/// assert_eq!(t.nrows(), 1);
/// assert_eq!(t.value(0, 1), &Value::Str("Anvil".into()));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    /// Per-column encode dictionaries, built lazily.
    #[serde(skip)]
    dicts: Vec<OnceLock<ColumnDict>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.columns == other.columns
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        let dicts = (0..schema.len()).map(|_| OnceLock::new()).collect();
        Table {
            schema,
            columns,
            dicts,
        }
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// [`TableError::ArityMismatch`] if the row length is wrong;
    /// [`TableError::TypeMismatch`] if a non-null cell does not match its
    /// column type.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            let field = self.schema.field(i);
            let ok = matches!(
                (field.dtype, v),
                (DataType::Str, Value::Str(_))
                    | (DataType::Int, Value::Int(_))
                    | (DataType::Float, Value::Float(_))
                    | (DataType::Float, Value::Int(_))
                    | (DataType::Bool, Value::Bool(_))
            ) || matches!(v, Value::Null);
            if !ok {
                return Err(TableError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype,
                    got: v.type_name(),
                });
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        // The cached dictionaries describe the old rows only.
        for dict in &mut self.dicts {
            dict.take();
        }
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.schema.len()
    }

    /// The value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// A whole column.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn column(&self, col: usize) -> &[Value] {
        &self.columns[col]
    }

    /// Resolves column names to indices.
    ///
    /// # Errors
    ///
    /// [`TableError::UnknownColumn`] naming the first missing column.
    pub fn resolve_columns(&self, names: &[String]) -> Result<Vec<usize>, TableError> {
        names
            .iter()
            .map(|n| {
                self.schema
                    .index_of(n)
                    .ok_or_else(|| TableError::UnknownColumn { name: n.clone() })
            })
            .collect()
    }

    /// A new table containing only the given rows (in the given order) —
    /// used by multi-invocation queries to feed filtered rows onward.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Table {
        let mut out = Table::new(self.schema.clone());
        for col in 0..self.ncols() {
            out.columns[col] = rows.iter().map(|&r| self.columns[col][r].clone()).collect();
            if let Some(dict) = self.dicts[col].get() {
                out.dicts[col] = OnceLock::from(dict.gather(rows));
            }
        }
        out
    }

    /// The first `n` rows.
    pub fn head(&self, n: usize) -> Table {
        let n = n.min(self.nrows());
        self.select_rows(&(0..n).collect::<Vec<_>>())
    }

    /// The encode dictionary of column `col`, built on first use.
    pub(crate) fn dict(&self, col: usize) -> &ColumnDict {
        self.dicts[col]
            .get_or_init(|| ColumnDict::build(&self.schema.field(col).name, &self.columns[col]))
    }

    /// Token count of the `(row, col)` cell's fragment, if an encode call
    /// has already tokenized it — a read of the column dictionary that
    /// builds and fills nothing.
    pub(crate) fn cached_fragment_len(&self, row: usize, col: usize) -> Option<usize> {
        let dict = self.dicts[col].get()?;
        dict.store.cached_len(dict.codes[row])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(Schema::of_strings(&["a", "b"]));
        t.push_row(vec!["x".into(), "y".into()]).unwrap();
        t.push_row(vec!["z".into(), "w".into()]).unwrap();
        t
    }

    #[test]
    fn push_and_access() {
        let t = sample();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.value(1, 0), &Value::Str("z".into()));
        assert_eq!(t.column(1).len(), 2);
    }

    #[test]
    fn arity_checked() {
        let mut t = sample();
        assert_eq!(
            t.push_row(vec!["only one".into()]),
            Err(TableError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn types_checked() {
        use crate::schema::Field;
        let mut t = Table::new(Schema::new(vec![Field::new("n", DataType::Int)]));
        assert!(t.push_row(vec![Value::Int(1)]).is_ok());
        assert!(t.push_row(vec![Value::Null]).is_ok());
        let err = t.push_row(vec![Value::Str("no".into())]).unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn ints_accepted_in_float_columns() {
        use crate::schema::Field;
        let mut t = Table::new(Schema::new(vec![Field::new("x", DataType::Float)]));
        assert!(t.push_row(vec![Value::Int(3)]).is_ok());
    }

    #[test]
    fn resolve_columns_by_name() {
        let t = sample();
        assert_eq!(
            t.resolve_columns(&["b".to_string(), "a".to_string()])
                .unwrap(),
            vec![1, 0]
        );
        assert!(matches!(
            t.resolve_columns(&["missing".to_string()]),
            Err(TableError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn select_rows_reorders_and_duplicates() {
        let t = sample();
        let s = t.select_rows(&[1, 0, 1]);
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.value(0, 0), &Value::Str("z".into()));
        assert_eq!(s.value(2, 0), &Value::Str("z".into()));
    }

    #[test]
    fn head_clamps() {
        let t = sample();
        assert_eq!(t.head(1).nrows(), 1);
        assert_eq!(t.head(10).nrows(), 2);
    }

    #[test]
    fn tables_stay_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Table>();
    }

    #[test]
    fn dictionaries_are_lazy_inherited_and_dropped_by_push_row() {
        let mut t = sample();
        assert!(t.dicts.iter().all(|d| d.get().is_none()));
        assert_eq!(t.dict(0).codes, vec![0, 1]);
        assert!(t.dicts[1].get().is_none(), "only the asked column is built");
        // Derived tables gather built dictionaries and share their store.
        let s = t.select_rows(&[1, 1, 0]);
        let inherited = s.dicts[0].get().expect("inherited");
        assert_eq!(inherited.codes, vec![1, 1, 0]);
        assert!(std::sync::Arc::ptr_eq(&inherited.store, &t.dict(0).store));
        assert!(s.dicts[1].get().is_none());
        assert_eq!(t.head(1).dicts[0].get().expect("inherited").codes, vec![0]);
        // Equality ignores the cache; push_row drops it.
        assert_eq!(t, sample());
        t.push_row(vec!["x".into(), "q".into()]).unwrap();
        assert!(t.dicts.iter().all(|d| d.get().is_none()));
        assert_eq!(t.dict(0).codes, vec![0, 1, 0]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new(Schema::of_strings(&["a"]));
        assert_eq!(t.nrows(), 0);
        assert_eq!(t.head(3).nrows(), 0);
    }
}
