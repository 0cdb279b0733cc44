//! A SQL front-end for LLM queries — the interface the paper's §1 examples
//! are written in:
//!
//! ```sql
//! SELECT movietitle FROM movies
//! WHERE LLM('Is this movie suitable for kids? Answer Yes or No.',
//!           movieinfo, reviewcontent, movietitle) = 'Yes'
//! ```
//!
//! The dialect covers the paper's workloads plus what its SQL-aware
//! optimizations need: `LLM(...)` calls in the projection (T2), `WHERE`
//! conjunctions mixing *several* `LLM(...)` predicates with cheap relational
//! predicates (`col = 'x'`, `col >= 10`, …), both at once (T3
//! multi-invocation), `AVG(LLM(...))` (T4), `LIMIT`, and `EXPLAIN`.
//!
//! Statements compile to a [`LogicalPlan`], pass through the cost-based
//! rewrite rules of the optimizer (see [`OptimizerConfig`]), and run on
//! [`SqlRunner`]'s
//! batched physical executor: cheap predicates run before LLM operators,
//! LLM predicates are ordered by estimated selectivity × per-row cost,
//! duplicate rows share engine requests, and `LIMIT` queries evaluate
//! lazily — stopping engine submission once enough rows qualify. With
//! [`OptimizerConfig::none`] the same executor reproduces the fixed
//! pre-optimizer pipeline, which is the differential oracle the integration
//! tests compare against.

use crate::adaptive::{SelectivityTracker, DEFAULT_PRIOR_STRENGTH};
use crate::exec::{ExecError, ExecOptions, QueryExecutor, QueryOutput, StageOutcome};
use crate::optimizer::{
    annotate_estimates, optimize_plan, CmpOp, LogicalOp, LogicalPlan, OptStats, OptimizerConfig,
    SqlPredicate,
};
use crate::pipeline::Stage;
use crate::query::LlmQuery;
use crate::table::{Table, TableError};
use llmqo_core::{FunctionalDeps, Reorderer};
use llmqo_costmodel::{CascadePlan, Pricing, TierPosterior};
use llmqo_serve::EngineReport;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Errors from parsing or executing SQL.
#[derive(Debug)]
pub enum SqlError {
    /// The statement did not lex/parse.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset of the offending token.
        offset: usize,
    },
    /// The referenced table is not registered.
    UnknownTable {
        /// The missing table name.
        name: String,
    },
    /// Execution failed downstream.
    Exec(ExecError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            SqlError::UnknownTable { name } => write!(f, "unknown table {name}"),
            SqlError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ExecError> for SqlError {
    fn from(e: ExecError) -> Self {
        SqlError::Exec(e)
    }
}

/// One `LLM('prompt', field, …)` call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmCall {
    /// The instruction text.
    pub prompt: String,
    /// Referenced fields; `*` expands to the table's full schema.
    pub fields: Vec<String>,
    /// Whether `*` was used.
    pub star: bool,
}

/// What the SELECT list asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// Plain columns only.
    Columns(Vec<String>),
    /// A projection LLM call (optionally aliased).
    Llm {
        /// The call.
        call: LlmCall,
        /// `AS alias`.
        alias: Option<String>,
    },
    /// `AVG(LLM(...))` aggregation.
    AvgLlm {
        /// The call.
        call: LlmCall,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// One conjunct of a `WHERE` clause. Conjuncts are combined with `AND`; the
/// optimizer is free to reorder them because row filters commute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WhereConjunct {
    /// `LLM(...) = 'label'` (or `<>`).
    Llm {
        /// The call.
        call: LlmCall,
        /// The compared label.
        label: String,
        /// Whether the comparison is `<>`.
        negated: bool,
    },
    /// A cheap relational predicate.
    Sql(SqlPredicate),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlStatement {
    /// The SELECT list.
    pub projection: Projection,
    /// Source table name.
    pub table: String,
    /// `WHERE` conjuncts, in written order (empty when there is no `WHERE`).
    pub where_clause: Vec<WhereConjunct>,
    /// Optional `LIMIT n`.
    pub limit: Option<usize>,
    /// Whether the statement was prefixed with `EXPLAIN`.
    pub explain: bool,
    /// Whether the statement was prefixed with `EXPLAIN ANALYZE` (execute,
    /// then render the plan annotated with measured per-operator stats).
    pub analyze: bool,
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Str(String),
    /// Numeric literal, kept verbatim (`LIMIT` wants an integer, predicates
    /// may compare decimals).
    Number(String),
    LParen,
    RParen,
    Comma,
    Star,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>, SqlError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                out.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, i));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, i));
                i += 1;
            }
            '*' => {
                out.push((Tok::Star, i));
                i += 1;
            }
            '=' => {
                out.push((Tok::Eq, i));
                i += 1;
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'>') => {
                    out.push((Tok::Neq, i));
                    i += 2;
                }
                Some(&b'=') => {
                    out.push((Tok::Le, i));
                    i += 2;
                }
                _ => {
                    out.push((Tok::Lt, i));
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ge, i));
                    i += 2;
                } else {
                    out.push((Tok::Gt, i));
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                let mut s = String::new();
                loop {
                    match bytes.get(j) {
                        Some(b'\'') if bytes.get(j + 1) == Some(&b'\'') => {
                            s.push('\'');
                            j += 2;
                        }
                        Some(b'\'') => break,
                        Some(&b) => {
                            s.push(b as char);
                            j += 1;
                        }
                        None => {
                            return Err(SqlError::Parse {
                                message: "unterminated string literal".into(),
                                offset: i,
                            })
                        }
                    }
                }
                out.push((Tok::Str(s), i));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                // Optional decimal part: `3.5` is one literal; `3.x` is not.
                if bytes.get(i) == Some(&b'.')
                    && bytes
                        .get(i + 1)
                        .is_some_and(|b| (*b as char).is_ascii_digit())
                {
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                out.push((Tok::Number(input[start..i].to_string()), start));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_alphanumeric() || ch == '_' || ch == '.' || ch == '/' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(input[start..i].to_string()), start));
            }
            _ => {
                return Err(SqlError::Parse {
                    message: format!("unexpected character {c:?}"),
                    offset: i,
                })
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |(_, o)| *o)
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            message: message.into(),
            offset: self.offset(),
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.next() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected {kw}")))
            }
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn parse_llm_call(&mut self) -> Result<LlmCall, SqlError> {
        self.expect_keyword("LLM")?;
        match self.next() {
            Some(Tok::LParen) => {}
            _ => return Err(self.err("expected '(' after LLM")),
        }
        let prompt = match self.next() {
            Some(Tok::Str(s)) => s,
            _ => return Err(self.err("expected prompt string literal")),
        };
        let mut fields = Vec::new();
        let mut star = false;
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.next();
            match self.next() {
                Some(Tok::Ident(f)) => {
                    // `t.*` references arrive as an ident with a trailing dot
                    // then a star token; `t.field` stays a plain ident whose
                    // table qualifier we strip.
                    if let Some(stripped) = f.strip_suffix('.') {
                        let _ = stripped;
                        match self.next() {
                            Some(Tok::Star) => star = true,
                            _ => return Err(self.err("expected '*' after qualifier")),
                        }
                    } else {
                        let name = f.rsplit('.').next().unwrap_or(&f).to_string();
                        fields.push(name);
                    }
                }
                Some(Tok::Star) => star = true,
                _ => return Err(self.err("expected field reference")),
            }
        }
        match self.next() {
            Some(Tok::RParen) => {}
            _ => return Err(self.err("expected ')' closing LLM call")),
        }
        Ok(LlmCall {
            prompt,
            fields,
            star,
        })
    }

    fn parse_alias(&mut self) -> Result<Option<String>, SqlError> {
        if self.is_keyword("AS") {
            self.next();
            match self.next() {
                Some(Tok::Ident(a)) => Ok(Some(a)),
                _ => Err(self.err("expected alias after AS")),
            }
        } else {
            Ok(None)
        }
    }

    fn parse_cmp(&mut self) -> Result<CmpOp, SqlError> {
        match self.next() {
            Some(Tok::Eq) => Ok(CmpOp::Eq),
            Some(Tok::Neq) => Ok(CmpOp::Ne),
            Some(Tok::Lt) => Ok(CmpOp::Lt),
            Some(Tok::Le) => Ok(CmpOp::Le),
            Some(Tok::Gt) => Ok(CmpOp::Gt),
            Some(Tok::Ge) => Ok(CmpOp::Ge),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected comparison operator"))
            }
        }
    }

    fn parse_where_conjunct(&mut self) -> Result<WhereConjunct, SqlError> {
        if self.is_keyword("LLM") {
            let call = self.parse_llm_call()?;
            let negated = match self.next() {
                Some(Tok::Eq) => false,
                Some(Tok::Neq) => true,
                _ => return Err(self.err("expected '=' or '<>' after LLM predicate")),
            };
            let label = match self.next() {
                Some(Tok::Str(s)) => s,
                _ => return Err(self.err("expected label string literal")),
            };
            Ok(WhereConjunct::Llm {
                call,
                label,
                negated,
            })
        } else {
            let column = match self.next() {
                Some(Tok::Ident(c)) => c.rsplit('.').next().unwrap_or(&c).to_string(),
                _ => return Err(self.err("expected LLM call or column name")),
            };
            let op = self.parse_cmp()?;
            let literal = match self.next() {
                Some(Tok::Str(s)) => s,
                Some(Tok::Number(n)) => n,
                _ => return Err(self.err("expected literal after comparison")),
            };
            Ok(WhereConjunct::Sql(SqlPredicate {
                column,
                op,
                literal,
            }))
        }
    }

    fn parse(&mut self) -> Result<SqlStatement, SqlError> {
        let explain = if self.is_keyword("EXPLAIN") {
            self.next();
            true
        } else {
            false
        };
        let analyze = if explain && self.is_keyword("ANALYZE") {
            self.next();
            true
        } else {
            false
        };
        self.expect_keyword("SELECT")?;
        let projection = if self.is_keyword("LLM") {
            let call = self.parse_llm_call()?;
            let alias = self.parse_alias()?;
            Projection::Llm { call, alias }
        } else if self.is_keyword("AVG") {
            self.next();
            match self.next() {
                Some(Tok::LParen) => {}
                _ => return Err(self.err("expected '(' after AVG")),
            }
            let call = self.parse_llm_call()?;
            match self.next() {
                Some(Tok::RParen) => {}
                _ => return Err(self.err("expected ')' closing AVG")),
            }
            let alias = self.parse_alias()?;
            Projection::AvgLlm { call, alias }
        } else {
            let mut cols = Vec::new();
            loop {
                match self.next() {
                    Some(Tok::Ident(c)) => {
                        cols.push(c.rsplit('.').next().unwrap_or(&c).to_string())
                    }
                    Some(Tok::Star) => cols.push("*".to_string()),
                    _ => return Err(self.err("expected column name")),
                }
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.next();
                } else {
                    break;
                }
            }
            Projection::Columns(cols)
        };

        self.expect_keyword("FROM")?;
        let table = match self.next() {
            Some(Tok::Ident(t)) => t,
            _ => return Err(self.err("expected table name")),
        };

        let mut where_clause = Vec::new();
        if self.is_keyword("WHERE") {
            self.next();
            loop {
                where_clause.push(self.parse_where_conjunct()?);
                if self.is_keyword("AND") {
                    self.next();
                } else {
                    break;
                }
            }
        }

        let mut limit = None;
        if self.is_keyword("LIMIT") {
            self.next();
            match self.next() {
                Some(Tok::Number(raw)) => match raw.parse::<usize>() {
                    Ok(n) => limit = Some(n),
                    Err(_) => return Err(self.err("expected integer row count after LIMIT")),
                },
                _ => return Err(self.err("expected row count after LIMIT")),
            }
        }
        if self.peek().is_some() {
            return Err(self.err("unexpected trailing tokens"));
        }
        Ok(SqlStatement {
            projection,
            table,
            where_clause,
            limit,
            explain,
            analyze,
        })
    }
}

/// Parses one statement of the LLM-SQL dialect.
///
/// # Errors
///
/// [`SqlError::Parse`] with the byte offset of the first offending token.
///
/// # Examples
///
/// ```
/// let stmt = llmqo_relational::parse_sql(
///     "SELECT movietitle FROM movies \
///      WHERE genres = 'Comedy' \
///      AND LLM('Suitable for kids?', movieinfo, reviewcontent) = 'Yes' \
///      LIMIT 10",
/// ).unwrap();
/// assert_eq!(stmt.table, "movies");
/// assert_eq!(stmt.where_clause.len(), 2);
/// ```
pub fn parse_sql(input: &str) -> Result<SqlStatement, SqlError> {
    let toks = lex(input)?;
    Parser { toks, pos: 0 }.parse()
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Result of running one SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows (stringified values, row-major), in original row order.
    /// For `EXPLAIN` statements: the plan rendering, one line per row.
    pub rows: Vec<Vec<String>>,
    /// The aggregate, for `AVG(LLM(...))` statements.
    pub aggregate: Option<f64>,
    /// Per-LLM-operator execution outputs, in *final* execution order
    /// (adaptive re-ranking may have moved operators mid-query).
    pub stages: Vec<QueryOutput>,
    /// Human-readable optimizer events: static rewrites plus runtime
    /// adaptive decisions (re-ranks, batch-size aims).
    pub notes: Vec<String>,
}

/// Smallest lazy-`LIMIT` / pilot batch (rows): the first batch of either
/// schedule (a lazy one starts at the limit when that is larger), and the
/// floor of adaptively aimed ones; without adaptive sizing, batches double
/// from here.
const LAZY_BATCH_MIN: usize = 32;

/// Per-plan-node measurements collected while `execute_plan` runs, consumed
/// by the `EXPLAIN ANALYZE` rendering.
struct AnalyzeData {
    /// `(rows offered, rows produced)` per plan-op index, summed over
    /// batches. The `Limit` node holds the materialized count before and
    /// after truncation.
    node_rows: Vec<(u64, u64)>,
    /// Plan-op index → index into [`SqlResult::stages`] for LLM operators.
    stage_of: Vec<Option<usize>>,
    /// How many leading entries of [`SqlResult::notes`] are optimizer
    /// rewrites; the rest were appended at runtime in schedule order.
    rewrite_notes: usize,
    /// Per-plan-op instant the operator's stage handed off its last batch:
    /// its final `Stage::clock`, escalation tier included. Rendered (as the
    /// per-node `done` column) only under pipelined execution, where the
    /// stages share one timeline.
    stage_done_s: Vec<f64>,
    /// Statement makespan on the shared timeline (max final stage clock).
    /// `None` when the statement ran as the classic relay.
    pipeline_makespan_s: Option<f64>,
}

/// Defaults applied when compiling SQL to [`LlmQuery`] plans (SQL carries no
/// label spaces or output-length hints).
#[derive(Debug, Clone)]
pub struct SqlDefaults {
    /// Labels assumed for filter predicates when only the compared label is
    /// known; the compared label is always inserted.
    pub filter_labels: Vec<String>,
    /// Mean output tokens for projection calls.
    pub projection_output_tokens: f64,
    /// Mean output tokens for filter calls.
    pub filter_output_tokens: f64,
    /// Score range for `AVG(LLM(...))`.
    pub aggregation_range: (i64, i64),
}

impl Default for SqlDefaults {
    fn default() -> Self {
        SqlDefaults {
            filter_labels: vec!["Yes".into(), "No".into()],
            projection_output_tokens: 32.0,
            filter_output_tokens: 2.0,
            aggregation_range: (1, 5),
        }
    }
}

/// Executes LLM-SQL statements against registered tables through a
/// [`QueryExecutor`] and a [`Reorderer`], applying the cost-based logical
/// optimizer (see [`OptimizerConfig`]) before execution. Construct with
/// every optimization on (the default) or tune via
/// [`with_optimizer`](SqlRunner::with_optimizer);
/// [`OptimizerConfig::none`] reproduces the unoptimized pipeline.
pub struct SqlRunner<'a> {
    executor: &'a QueryExecutor<'a>,
    reorderer: &'a dyn Reorderer,
    defaults: SqlDefaults,
    opt: OptimizerConfig,
    pricing: Pricing,
    catalog: HashMap<String, (&'a Table, &'a FunctionalDeps)>,
    /// Learned tier posteriors per operator (keyed by query name):
    /// escalation and cheap-vs-expensive agreement rates, carried across
    /// statements so the re-rank's cascade cost factor sharpens with
    /// observations. Empty — and never touched — when cascades are off.
    tier_posteriors: RefCell<HashMap<String, TierPosterior>>,
}

impl<'a> fmt::Debug for SqlRunner<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SqlRunner")
            .field("tables", &self.catalog.keys().collect::<Vec<_>>())
            .field("optimizer", &self.opt)
            .finish_non_exhaustive()
    }
}

impl<'a> SqlRunner<'a> {
    /// Creates a runner with every optimization enabled.
    pub fn new(executor: &'a QueryExecutor<'a>, reorderer: &'a dyn Reorderer) -> Self {
        SqlRunner {
            executor,
            reorderer,
            defaults: SqlDefaults::default(),
            opt: OptimizerConfig::default(),
            pricing: Pricing::gpt4o_mini(),
            catalog: HashMap::new(),
            tier_posteriors: RefCell::new(HashMap::new()),
        }
    }

    /// Overrides compilation defaults.
    pub fn with_defaults(mut self, defaults: SqlDefaults) -> Self {
        self.defaults = defaults;
        self
    }

    /// Selects which optimizations run ([`OptimizerConfig::none`] is the
    /// differential oracle).
    pub fn with_optimizer(mut self, opt: OptimizerConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Sets the price schedule the cost-based rules rank LLM operators with.
    pub fn with_pricing(mut self, pricing: Pricing) -> Self {
        self.pricing = pricing;
        self
    }

    /// Registers a table under `name`.
    pub fn register(&mut self, name: impl Into<String>, table: &'a Table, fds: &'a FunctionalDeps) {
        self.catalog.insert(name.into(), (table, fds));
    }

    /// Snapshots the executor's answer cache as a
    /// [`StatementCheckpoint`](crate::StatementCheckpoint): the LLM work
    /// every statement run so far has already paid for. Take one after a
    /// statement dies mid-flight and
    /// [`restore`](SqlRunner::restore) it into a fresh runner's executor —
    /// the re-run statement answers checkpointed prompts from the cache
    /// (byte-identical rows) and only re-issues the unfinished tail.
    pub fn checkpoint(&self) -> crate::StatementCheckpoint {
        self.executor.checkpoint()
    }

    /// Merges a [`checkpoint`](SqlRunner::checkpoint) into the executor's
    /// answer cache (existing entries win).
    pub fn restore(&self, checkpoint: &crate::StatementCheckpoint) {
        self.executor.restore(checkpoint);
    }

    /// Expands an `LLM(...)` call's field list. Star (and empty) calls
    /// expand to the whole schema; when the caller supplies the statement's
    /// referenced-column set, the expansion is pruned to it — fields no part
    /// of the statement ever reads are provably ignored by the SELECT list,
    /// so dropping them from the prompt (and therefore from the dedup key
    /// and the solver's [`ReorderTable`](llmqo_core::ReorderTable) view)
    /// cannot change results. Explicit field lists are never touched, and a
    /// pruning that would leave the call with no fields falls back to the
    /// full expansion (an LLM call must read at least one field).
    fn resolve_fields(
        &self,
        call: &LlmCall,
        table: &Table,
        referenced: Option<&HashSet<String>>,
    ) -> Vec<String> {
        if call.star || call.fields.is_empty() {
            let all: Vec<String> = table
                .schema()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            if let Some(refs) = referenced {
                let pruned: Vec<String> =
                    all.iter().filter(|c| refs.contains(*c)).cloned().collect();
                if !pruned.is_empty() {
                    return pruned;
                }
            }
            all
        } else {
            call.fields.clone()
        }
    }

    /// The set of columns the statement references anywhere — SELECT list,
    /// cheap predicates, and explicit LLM field lists. Returns `None` (no
    /// pruning) when [`OptimizerConfig::prune_fields`] is off or when the
    /// projection itself reads every column (`SELECT *`, or a star LLM
    /// projection), since then nothing is provably ignored. Star `LLM`
    /// calls in `WHERE` contribute nothing: they are the prune targets.
    fn statement_columns(&self, stmt: &SqlStatement) -> Option<HashSet<String>> {
        if !self.opt.prune_fields {
            return None;
        }
        let mut cols = HashSet::new();
        match &stmt.projection {
            Projection::Columns(c) => {
                if c.iter().any(|c| c == "*") {
                    return None;
                }
                cols.extend(c.iter().cloned());
            }
            Projection::Llm { call, .. } | Projection::AvgLlm { call, .. } => {
                if call.star || call.fields.is_empty() {
                    return None;
                }
                cols.extend(call.fields.iter().cloned());
            }
        }
        for conj in &stmt.where_clause {
            match conj {
                WhereConjunct::Sql(pred) => {
                    cols.insert(pred.column.clone());
                }
                WhereConjunct::Llm { call, .. } => {
                    cols.extend(call.fields.iter().cloned());
                }
            }
        }
        Some(cols)
    }

    /// Compiles a parsed statement to its (unoptimized) logical plan, plus
    /// projection-pruning rewrite notes (see
    /// [`resolve_fields`](Self::resolve_fields)).
    fn build_plan(&self, stmt: &SqlStatement, table: &Table) -> (LogicalPlan, Vec<String>) {
        let referenced = self.statement_columns(stmt);
        let nfields = table.schema().names().len();
        let mut notes = Vec::new();
        let mut resolve = |call: &LlmCall, name: &str| -> Vec<String> {
            let fields = self.resolve_fields(call, table, referenced.as_ref());
            if (call.star || call.fields.is_empty()) && fields.len() < nfields {
                notes.push(format!(
                    "prune {name}: star expansion narrowed {nfields} → {} field(s) \
                     (columns the statement never reads are dropped from the \
                     prompt, dedup key, and reorder view)",
                    fields.len(),
                ));
            }
            fields
        };
        let mut ops = vec![LogicalOp::Scan {
            table: stmt.table.clone(),
        }];
        let mut llm_ordinal = 0usize;
        for conj in &stmt.where_clause {
            match conj {
                WhereConjunct::Sql(pred) => ops.push(LogicalOp::SqlFilter { pred: pred.clone() }),
                WhereConjunct::Llm {
                    call,
                    label,
                    negated,
                } => {
                    llm_ordinal += 1;
                    let name = if llm_ordinal == 1 {
                        format!("sql-where-{}", stmt.table)
                    } else {
                        format!("sql-where-{}-{llm_ordinal}", stmt.table)
                    };
                    let mut labels = self.defaults.filter_labels.clone();
                    if !labels.contains(label) {
                        labels.insert(0, label.clone());
                    }
                    let query = LlmQuery::filter(
                        name.clone(),
                        call.prompt.clone(),
                        resolve(call, &name),
                        labels,
                        label.clone(),
                        self.defaults.filter_output_tokens,
                    );
                    ops.push(LogicalOp::LlmFilter {
                        query,
                        negated: *negated,
                        est: None,
                    });
                }
            }
        }
        match &stmt.projection {
            Projection::Columns(cols) => {
                let columns: Vec<String> = if cols.iter().any(|c| c == "*") {
                    table
                        .schema()
                        .names()
                        .iter()
                        .map(|s| s.to_string())
                        .collect()
                } else {
                    cols.clone()
                };
                ops.push(LogicalOp::Project { columns });
            }
            Projection::Llm { call, alias } => {
                let name = format!("sql-select-{}", stmt.table);
                let query = LlmQuery::projection(
                    name.clone(),
                    call.prompt.clone(),
                    resolve(call, &name),
                    self.defaults.projection_output_tokens,
                );
                ops.push(LogicalOp::LlmProject {
                    query,
                    alias: alias.clone().unwrap_or_else(|| "llm".to_string()),
                });
            }
            Projection::AvgLlm { call, alias } => {
                let name = format!("sql-avg-{}", stmt.table);
                let query = LlmQuery::aggregation(
                    name.clone(),
                    call.prompt.clone(),
                    resolve(call, &name),
                    self.defaults.aggregation_range,
                    self.defaults.filter_output_tokens,
                );
                ops.push(LogicalOp::LlmAggregate {
                    query,
                    alias: alias.clone().unwrap_or_else(|| "avg".to_string()),
                });
            }
        }
        if let Some(n) = stmt.limit {
            ops.push(LogicalOp::Limit { n });
        }
        (LogicalPlan { ops }, notes)
    }

    /// Builds, annotates, and optimizes the plan for a parsed statement.
    /// Returned notes are rewrites: pruning events first, then the cost-based
    /// rules' events.
    fn plan_for(&self, stmt: &SqlStatement) -> Result<(LogicalPlan, Vec<String>), SqlError> {
        let &(table, _fds) =
            self.catalog
                .get(&stmt.table)
                .ok_or_else(|| SqlError::UnknownTable {
                    name: stmt.table.clone(),
                })?;
        let (mut plan, mut notes) = self.build_plan(stmt, table);
        annotate_estimates(&mut plan, table, self.executor.tokenizer());
        let (plan, opt_notes) = optimize_plan(&plan, &self.opt, &self.pricing);
        notes.extend(opt_notes);
        Ok((plan, notes))
    }

    /// Renders the optimized plan for `sql` without executing anything —
    /// the `EXPLAIN` entry point usable without a truth provider.
    ///
    /// # Errors
    ///
    /// [`SqlError`] on parse or catalog failure.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        let stmt = parse_sql(sql)?;
        let (plan, notes) = self.plan_for(&stmt)?;
        let mut out = plan.explain();
        out.push_str(&format!(
            "-- optimizer: dedup {}, reorder {}, lazy limit {}, adaptive {}, \
             answer cache {} (pricing: {})\n",
            on_off(self.opt.dedup),
            on_off(self.opt.reorder),
            on_off(self.opt.lazy_limit),
            on_off(self.opt.adaptive),
            on_off(self.opt.answer_cache),
            self.pricing.name,
        ));
        out.push_str(&self.faults_footer());
        out.push_str(&self.pipeline_footer(None));
        out.push_str(&self.cascade_footer(None));
        for note in &notes {
            out.push_str(&format!("-- rewrite: {note}\n"));
        }
        Ok(out)
    }

    /// The `-- pipeline:` footer line, or empty when pipelined execution is
    /// off (so classic-relay EXPLAIN output is unchanged). `EXPLAIN ANALYZE`
    /// passes the measured statement makespan.
    fn pipeline_footer(&self, makespan_s: Option<f64>) -> String {
        if !self.opt.pipeline {
            return String::new();
        }
        let measured = makespan_s.map_or(String::new(), |m| format!(", makespan {m:.2}s"));
        format!(
            "-- pipeline: replicas {}, micro-batch {} rows{measured}\n",
            self.opt.pipeline_replicas.max(1),
            self.opt.pipeline_batch_rows.max(1),
        )
    }

    /// The `-- faults:` footer line, or empty when no fault injection is
    /// configured (so fault-free EXPLAIN output is unchanged).
    fn faults_footer(&self) -> String {
        let Some(fa) = self.opt.faults else {
            return String::new();
        };
        format!(
            "-- faults: error rate {} ppm, budget {} attempt(s), {} (seed {})\n",
            fa.error_ppm,
            fa.max_attempts.max(1),
            if fa.partial_results {
                "partial results"
            } else {
                "strict"
            },
            fa.seed,
        )
    }

    /// The `-- cascade:` footer line, or empty when cascades are off (so
    /// single-tier EXPLAIN output stays byte-identical). `EXPLAIN ANALYZE`
    /// passes the statement's measured per-tier dollar ledger.
    fn cascade_footer(&self, measured: Option<(f64, f64)>) -> String {
        let Some(cc) = self.opt.cascade else {
            return String::new();
        };
        let p = cc.plan;
        let measured = measured.map_or(String::new(), |(cheap, esc)| {
            format!(", measured ${cheap:.4} cheap + ${esc:.4} expensive")
        });
        format!(
            "-- cascade: escalate below {:.2} (seed {}), cheap ${}/M in ${}/M out \
             (base acc {:.2}), expensive ${}/M in ${}/M out{measured}\n",
            p.escalate_below,
            p.seed,
            p.cheap.input_per_mtok,
            p.cheap.output_per_mtok,
            p.cheap.base_accuracy,
            p.expensive.input_per_mtok,
            p.expensive.output_per_mtok,
        )
    }

    /// Folds one batch's observed escalation split into the operator's tier
    /// posterior, registering it on first sight with the plan's own priors:
    /// the escalation prior is the threshold itself (confidence is
    /// uniform), the agreement prior the cheap tier's base accuracy.
    fn observe_tier(&self, plan: &CascadePlan, name: &str, opt: &OptStats) {
        self.tier_posteriors
            .borrow_mut()
            .entry(name.to_owned())
            .or_insert_with(|| {
                TierPosterior::new(
                    plan.escalate_below,
                    plan.cheap.base_accuracy,
                    DEFAULT_PRIOR_STRENGTH,
                )
            })
            .observe(
                opt.rows_escalated,
                opt.rows_cheap + opt.rows_escalated,
                opt.tier_agreements,
            );
    }

    /// Parses and executes `sql`, supplying ground truth per row via `truth`.
    /// `EXPLAIN`-prefixed statements return the plan rendering as rows
    /// instead of executing; `EXPLAIN ANALYZE` executes the statement and
    /// returns the plan annotated with measured per-operator statistics
    /// (rows in/out, LLM calls, dedup/cache savings, re-ranks, sim-time),
    /// with the executed stages and notes attached to the result.
    ///
    /// # Errors
    ///
    /// [`SqlError`] on parse, catalog, or execution failure.
    pub fn run(&self, sql: &str, truth: &dyn Fn(usize) -> String) -> Result<SqlResult, SqlError> {
        let stmt = parse_sql(sql)?;
        if stmt.explain && !stmt.analyze {
            let text = self.explain(sql)?;
            return Ok(SqlResult {
                columns: vec!["plan".into()],
                rows: text.lines().map(|l| vec![l.to_string()]).collect(),
                aggregate: None,
                stages: Vec::new(),
                notes: Vec::new(),
            });
        }
        let &(table, fds) =
            self.catalog
                .get(&stmt.table)
                .ok_or_else(|| SqlError::UnknownTable {
                    name: stmt.table.clone(),
                })?;
        let (plan, notes) = self.plan_for(&stmt)?;
        let (result, data) = self.execute_plan(&plan, notes, table, fds, truth)?;
        if stmt.analyze {
            let text = self.render_analyze(&plan, &result, &data);
            return Ok(SqlResult {
                columns: vec!["plan".into()],
                rows: text.lines().map(|l| vec![l.to_string()]).collect(),
                aggregate: result.aggregate,
                stages: result.stages,
                notes: result.notes,
            });
        }
        Ok(result)
    }

    /// Renders the executed plan with per-node measurements plus the
    /// optimizer footer — the `EXPLAIN ANALYZE` output. Runtime notes
    /// (adaptive re-ranks, batch resizing) follow the `-- rewrite:` lines
    /// as `-- runtime:` lines, verbatim and in schedule order.
    fn render_analyze(&self, plan: &LogicalPlan, result: &SqlResult, data: &AnalyzeData) -> String {
        let mut out = plan.explain_with(|idx, op| {
            let (rows_in, rows_out) = data.node_rows[idx];
            Some(match op {
                LogicalOp::Scan { .. } => format!("(rows {rows_out})"),
                op if op.llm_query().is_some() => {
                    let report = data.stage_of[idx].map(|s| &result.stages[s].report);
                    let opt = report.map(|r| r.opt).unwrap_or_default();
                    let sim_s = report.map_or(0.0, |r| r.engine.job_completion_time_s);
                    // Failure columns appear only when fault injection
                    // actually bit, so fault-free renderings are unchanged.
                    let faults = if opt.llm_retries > 0 || opt.rows_failed > 0 {
                        format!(
                            ", retries {}, rows failed {}",
                            opt.llm_retries, opt.rows_failed
                        )
                    } else {
                        String::new()
                    };
                    // Overlap columns appear only under pipelined execution,
                    // so classic-relay renderings are unchanged: `busy` is
                    // the stage's attributed engine time, `done` the instant
                    // on the shared statement timeline its last micro-batch
                    // finished. `done − busy` is time spent waiting on
                    // upstream operators — overlap the pipeline bought.
                    let overlap = if data.pipeline_makespan_s.is_some() {
                        let busy = report.map_or(0.0, |r| {
                            r.engine.prefill_time_s
                                + r.engine.decode_time_s
                                + r.engine.overhead_time_s
                        });
                        format!(", busy {busy:.2}s, done {:.2}s", data.stage_done_s[idx])
                    } else {
                        String::new()
                    };
                    // Tier-split columns appear only when a cascade actually
                    // labeled rows here, so single-tier renderings are
                    // unchanged.
                    let tiers = match self.opt.cascade {
                        Some(cc) if opt.rows_cheap + opt.rows_escalated > 0 => {
                            let cheap_cost = cc.plan.cheap.cost(
                                opt.cheap_prompt_tokens as f64,
                                opt.cheap_output_tokens as f64,
                            );
                            let esc_cost = cc
                                .plan
                                .expensive
                                .cost(opt.esc_prompt_tokens as f64, opt.esc_output_tokens as f64);
                            format!(
                                ", rows cheap {} / escalated {}, \
                                 ${cheap_cost:.4} cheap + ${esc_cost:.4} expensive",
                                opt.rows_cheap, opt.rows_escalated,
                            )
                        }
                        _ => String::new(),
                    };
                    format!(
                        "(rows {rows_in} → {rows_out}, llm calls {}, dedup saved {}, \
                         cache saved {}, re-ranks {}, skipped {}{faults}{tiers}, \
                         sim {sim_s:.2}s{overlap})",
                        opt.llm_calls,
                        opt.rows_deduped,
                        opt.cache_hits,
                        opt.reranks,
                        opt.rows_skipped,
                    )
                }
                _ => format!("(rows {rows_in} → {rows_out})"),
            })
        });
        out.push_str(&format!(
            "-- optimizer: dedup {}, reorder {}, lazy limit {}, adaptive {}, \
             answer cache {} (pricing: {})\n",
            on_off(self.opt.dedup),
            on_off(self.opt.reorder),
            on_off(self.opt.lazy_limit),
            on_off(self.opt.adaptive),
            on_off(self.opt.answer_cache),
            self.pricing.name,
        ));
        out.push_str(&self.faults_footer());
        out.push_str(&self.pipeline_footer(data.pipeline_makespan_s));
        let measured = self.opt.cascade.map(|cc| {
            let (mut cheap, mut esc) = (0.0f64, 0.0f64);
            for s in &result.stages {
                cheap += cc.plan.cheap.cost(
                    s.report.opt.cheap_prompt_tokens as f64,
                    s.report.opt.cheap_output_tokens as f64,
                );
                esc += cc.plan.expensive.cost(
                    s.report.opt.esc_prompt_tokens as f64,
                    s.report.opt.esc_output_tokens as f64,
                );
            }
            (cheap, esc)
        });
        out.push_str(&self.cascade_footer(measured));
        for note in &result.notes[..data.rewrite_notes] {
            out.push_str(&format!("-- rewrite: {note}\n"));
        }
        for note in &result.notes[data.rewrite_notes..] {
            out.push_str(&format!("-- runtime: {note}\n"));
        }
        out
    }

    /// The physical interpreter: runs the optimized operator chain with one
    /// [`Stage`] per LLM operator, exact dedup, the session answer cache,
    /// and batched (lazy `LIMIT` / adaptive pilot / pipelined) execution. With
    /// [`OptimizerConfig::adaptive`] on, observed per-filter pass rates are
    /// folded into a [`SelectivityTracker`] batch by batch; between batches
    /// the remaining LLM filters are re-ranked by posterior
    /// cost/(1−selectivity) and lazy-`LIMIT` batches are sized at
    /// `ceil(remaining / observed_pipeline_selectivity)` (doubling only as
    /// fallback).
    fn execute_plan(
        &self,
        plan: &LogicalPlan,
        mut notes: Vec<String>,
        table: &Table,
        fds: &FunctionalDeps,
        truth: &dyn Fn(usize) -> String,
    ) -> Result<(SqlResult, AnalyzeData), SqlError> {
        let ops = &plan.ops;
        let mut data = AnalyzeData {
            node_rows: vec![(0, 0); ops.len()],
            stage_of: vec![None; ops.len()],
            rewrite_notes: notes.len(),
            stage_done_s: vec![0.0; ops.len()],
            pipeline_makespan_s: None,
        };
        let limit = plan.limit();
        let has_agg = ops
            .iter()
            .any(|op| matches!(op, LogicalOp::LlmAggregate { .. }));
        let n_llm_filters = ops
            .iter()
            .filter(|op| matches!(op, LogicalOp::LlmFilter { .. }))
            .count();
        // Lazy LIMIT applies when a limit exists, results stream row by row
        // (aggregation blocks), and stopping early actually saves LLM work.
        let lazy = self.opt.lazy_limit && limit.is_some() && !has_agg && plan.llm_ops() > 0;
        let adaptive = self.opt.adaptive;
        // Without a LIMIT there is nothing to stop early — but a statement
        // with several LLM filters still profits from *pilot batching*: run
        // the first batch under the static order, observe real pass rates,
        // and evaluate the remaining rows under the corrected order. Pilot
        // batching requires the answer cache: dedup groups only within one
        // batch, so without the cache, splitting a duplicate-heavy
        // statement into batches would re-issue each distinct prompt once
        // per batch instead of once per statement.
        let pilot =
            adaptive && self.opt.reorder && self.opt.answer_cache && !lazy && n_llm_filters >= 2;
        // Pipelined execution slices the statement into fixed micro-batches
        // and chains each batch's hand-off instant through the operator
        // stages on one shared timeline, so operator j prefills batch k+1
        // while operator j+1 decodes batch k (see [`crate::pipeline`]).
        let pipelined = self.opt.pipeline && plan.llm_ops() > 0;
        let batching = lazy || pilot || pipelined;

        // One stage per LLM operator, indexed by *plan* position — stable
        // across adaptive re-ranking, which permutes only the execution
        // schedule below. A stage opens on its operator's first batch and
        // persists across batches, so later batches reuse the prefixes
        // earlier ones computed. Every stage runs under the statement's
        // physical options (with a cascade configured, every LLM operator
        // cascades); only pipelined statements fan out.
        let mut stages: Vec<Option<Stage<'_>>> = ops.iter().map(|_| None).collect();
        let exec_opts = ExecOptions {
            dedup: self.opt.dedup,
            answer_cache: self.opt.answer_cache,
            faults: self.opt.faults,
            cascade: self.opt.cascade.map(|cc| cc.plan),
        };
        let replicas = if pipelined {
            self.opt.pipeline_replicas
        } else {
            1
        };

        // Leading cheap predicates narrow the candidate set before any
        // batching — with the reorder rule on, that is all of them.
        let mut candidates: Vec<usize> = (0..table.nrows()).collect();
        data.node_rows[0] = (candidates.len() as u64, candidates.len() as u64);
        let mut first_heavy = 1;
        while first_heavy < ops.len() {
            if let LogicalOp::SqlFilter { pred } = &ops[first_heavy] {
                let offered = candidates.len() as u64;
                candidates = filter_sql(table, &candidates, pred)?;
                data.node_rows[first_heavy] = (offered, candidates.len() as u64);
                first_heavy += 1;
            } else {
                break;
            }
        }

        // The execution schedule: remaining plan-op indices in execution
        // order. Adaptive re-ranking permutes the LlmFilter entries among
        // the slots they occupy; everything else stays put.
        let mut exec_order: Vec<usize> = (first_heavy..ops.len()).collect();

        // Seed the tracker with the optimizer's static priors: per LLM
        // filter, and their product as the pipeline prior for batch sizing.
        let mut tracker = SelectivityTracker::new(DEFAULT_PRIOR_STRENGTH);
        if adaptive {
            let mut pipeline_prior = 1.0;
            for (idx, op) in ops.iter().enumerate() {
                if let LogicalOp::LlmFilter { est, .. } = op {
                    let prior = est.map_or(0.5, |e| e.selectivity);
                    tracker.register(idx, prior);
                    pipeline_prior *= prior;
                }
            }
            tracker.register_pipeline(pipeline_prior);
        }

        // Emitted result rows: original index plus the LLM projection text
        // when the SELECT list is an LLM call.
        let mut emitted: Vec<(usize, Option<String>)> = Vec::new();
        let mut start = 0usize;
        let mut batch_no = 0u32;
        let mut batch_size = if lazy {
            LAZY_BATCH_MIN.max(limit.unwrap_or(0))
        } else if pilot {
            LAZY_BATCH_MIN
        } else if pipelined {
            self.opt.pipeline_batch_rows.max(1)
        } else {
            candidates.len()
        };
        // An already-satisfied limit (e.g. LIMIT 0) issues no batch at all.
        while start < candidates.len() && !(lazy && limit.is_some_and(|k| emitted.len() >= k)) {
            let end = if batching {
                (start + batch_size).min(candidates.len())
            } else {
                candidates.len()
            };
            let emitted_before = emitted.len();
            let mut rows: Vec<usize> = candidates[start..end].to_vec();
            // Pipelined hand-off chaining: each batch's rows exist at scan
            // time 0; every LLM operator fast-forwards to the instant the
            // previous operator released this batch (`ready`), and its own
            // stage clock serializes successive batches — producing the
            // staggered, overlapping schedule. The classic relay keeps each
            // stage on its independent zero-based timeline (`ready` unused).
            let mut ready = 0.0f64;
            for &idx in &exec_order {
                let node_offered = rows.len() as u64;
                let op = &ops[idx];
                if let Some(query) = op.llm_query() {
                    let stage = match &mut stages[idx] {
                        Some(stage) => stage,
                        slot => slot.insert(
                            Stage::open(self.executor.engine(), replicas, query, exec_opts)
                                .map_err(ExecError::Engine)?,
                        ),
                    };
                    if pipelined {
                        stage.advance_to(ready);
                    }
                    let out =
                        stage.run_batch(self.executor, table, &rows, self.reorderer, fds, truth)?;
                    if pipelined {
                        ready = stage.clock();
                    }
                    if let Some(plan) = &exec_opts.cascade {
                        self.observe_tier(plan, &query.name, &out.opt);
                    }
                    self.note_failed_rows(query, &out, &mut notes);
                    match op {
                        LogicalOp::LlmFilter { negated, .. } => {
                            let label = query.predicate_label.as_deref().unwrap_or_else(|| {
                                unreachable!("filter queries carry a predicate label")
                            });
                            let offered = rows.len() as u64;
                            rows = out
                                .outputs
                                .iter()
                                .filter(|o| (o.text == label) != *negated)
                                .map(|o| o.row)
                                .collect();
                            if adaptive {
                                tracker.observe(idx, rows.len() as u64, offered);
                            }
                        }
                        LogicalOp::LlmProject { .. } => {
                            for o in &out.outputs {
                                emitted.push((o.row, Some(o.text.clone())));
                            }
                        }
                        // An aggregate folds its outputs when the stage
                        // finishes.
                        _ => {}
                    }
                    stage.outcome.absorb(out);
                } else {
                    match op {
                        LogicalOp::SqlFilter { pred } => rows = filter_sql(table, &rows, pred)?,
                        LogicalOp::Project { .. } => {
                            emitted.extend(rows.iter().map(|&r| (r, None)));
                        }
                        LogicalOp::Limit { .. } => {}
                        _ => unreachable!("scan is always ops[0], outside the schedule"),
                    }
                }
                data.node_rows[idx].0 += node_offered;
                data.node_rows[idx].1 += rows.len() as u64;
            }
            batch_no += 1;
            if adaptive {
                tracker.observe_pipeline(
                    (emitted.len() - emitted_before) as u64,
                    (end - start) as u64,
                );
            }
            start = end;
            if !batching {
                break;
            }
            // Mid-query re-ranking is the runtime refinement of the static
            // reorder rule — a config that disables reordering keeps the
            // written LLM-predicate order, adaptively sized batches or not.
            if adaptive && self.opt.reorder && start < candidates.len() {
                self.rerank_schedule(
                    ops,
                    &tracker,
                    &mut exec_order,
                    &mut stages,
                    batch_no,
                    &mut notes,
                );
            }
            // Size the next batch: aim at the limit through the observed
            // pipeline selectivity, falling back to doubling until the
            // pipeline has data (and always, when adaptivity is off).
            let aimed = if lazy && adaptive {
                let remaining = limit
                    .unwrap_or_else(|| unreachable!("lazy requires a limit"))
                    .saturating_sub(emitted.len());
                tracker.next_batch_size(remaining, LAZY_BATCH_MIN, candidates.len() - start)
            } else {
                None
            };
            match aimed {
                Some(n) => {
                    if n != batch_size {
                        notes.push(format!(
                            "adaptive batch sizing after batch {batch_no}: {n} rows \
                             (pipeline selectivity {:.3})",
                            tracker.pipeline_selectivity().unwrap_or(0.0),
                        ));
                        if llmqo_obs::enabled() {
                            llmqo_obs::registry()
                                .counter("sql.adaptive_batch_resizes")
                                .inc();
                        }
                    }
                    batch_size = n;
                }
                // Lazy/pilot batches double until the tracker has data;
                // pure pipelined execution keeps its fixed micro-batch so
                // the stages stay overlapped end to end.
                None if pipelined && !lazy && !pilot => {}
                None => batch_size *= 2,
            }
        }

        // LIMIT-early-stop savings: candidates the scan never reached are
        // attributed to the first LLM operator in final execution order, so
        // `rows_in + rows_skipped` reconciles with full materialization.
        let skipped = (candidates.len() - start) as u64;
        let first_llm = exec_order
            .iter()
            .copied()
            .find(|&i| ops[i].llm_query().is_some());

        // Finalize per-operator stages in final execution order. An
        // operator no batch reached never opened a stage and reports
        // defaults. All stages share one timeline, so a pipelined statement
        // is done when its slowest stage is.
        let mut outputs = Vec::new();
        let mut aggregate = None;
        let (mut makespan, mut fanout) = (0.0f64, 1);
        for &idx in &exec_order {
            let Some(query) = ops[idx].llm_query() else {
                continue;
            };
            let solver = self.reorderer.name();
            let mut output = match stages[idx].take() {
                Some(stage) => {
                    data.stage_done_s[idx] = stage.clock();
                    makespan = makespan.max(stage.clock());
                    fanout = fanout.max(stage.engine.replicas());
                    stage.finish(solver)
                }
                None => StageOutcome::default().into_query_output(
                    query,
                    solver,
                    EngineReport::default(),
                ),
            };
            if first_llm == Some(idx) {
                output.report.opt.rows_skipped += skipped;
            }
            if matches!(ops[idx], LogicalOp::LlmAggregate { .. }) {
                aggregate = output.aggregate;
            }
            data.stage_of[idx] = Some(outputs.len());
            outputs.push(output);
        }
        if pipelined {
            data.pipeline_makespan_s = Some(makespan);
            notes.push(format!(
                "pipelined execution: {batch_no} micro-batch(es), {fanout} \
                 replica(s) per stage, statement makespan {makespan:.2}s",
            ));
        }

        // Materialize the SELECT list.
        let (columns, mut rows) = match ops
            .iter()
            .find(|op| {
                matches!(
                    op,
                    LogicalOp::Project { .. }
                        | LogicalOp::LlmProject { .. }
                        | LogicalOp::LlmAggregate { .. }
                )
            })
            .unwrap_or_else(|| unreachable!("plans always carry a projection operator"))
        {
            LogicalOp::Project { columns } => {
                let idxs = table
                    .resolve_columns(columns)
                    .map_err(|e| SqlError::Exec(ExecError::Table(e)))?;
                let rows: Vec<Vec<String>> = emitted
                    .iter()
                    .map(|&(r, _)| {
                        idxs.iter()
                            .map(|&c| table.value(r, c).to_string())
                            .collect()
                    })
                    .collect();
                (columns.clone(), rows)
            }
            LogicalOp::LlmProject { alias, .. } => (
                vec![alias.clone()],
                emitted
                    .iter()
                    .map(|(_, text)| {
                        vec![text
                            .clone()
                            .unwrap_or_else(|| unreachable!("LLM projection emits text"))]
                    })
                    .collect(),
            ),
            LogicalOp::LlmAggregate { alias, .. } => (
                vec![alias.clone()],
                vec![vec![aggregate.map_or("null".into(), |a| format!("{a:.3}"))]],
            ),
            _ => unreachable!("find matched projection operators only"),
        };
        let before_limit = rows.len() as u64;
        if let Some(n) = limit {
            rows.truncate(n);
        }
        // The Limit node's true in/out is the materialized row count before
        // and after truncation, not the pass-through counts the batch loop
        // accumulated for it.
        if let Some(pos) = ops
            .iter()
            .position(|op| matches!(op, LogicalOp::Limit { .. }))
        {
            data.node_rows[pos] = (before_limit, rows.len() as u64);
        }
        Ok((
            SqlResult {
                columns,
                rows,
                aggregate,
                stages: outputs,
                notes,
            },
            data,
        ))
    }

    /// Re-runs the cost/(1−selectivity) ranking over the schedule's LLM
    /// filters with posterior selectivities, permuting them among the slots
    /// they occupy when the observed order diverges from the current one.
    /// Sorting is stable, so equal-rank filters keep their position; each
    /// moved operator's [`OptStats::reranks`](crate::OptStats) is bumped
    /// and a human-readable note records the event.
    ///
    /// With a cascade configured, each operator's dollar rank is folded
    /// with what execution has actually shown: the cascade's expected
    /// cost ratio (posterior escalation rate) and the *observed* dedup
    /// factor (issued requests per offered row — duplicate-heavy operators
    /// are cheaper per row than their estimate). With `cascade: None` the
    /// rank is the pure-dollar PR-5 rule, unchanged.
    fn rerank_schedule(
        &self,
        ops: &[LogicalOp],
        tracker: &SelectivityTracker,
        exec_order: &mut [usize],
        stages: &mut [Option<Stage<'_>>],
        batch_no: u32,
        notes: &mut Vec<String>,
    ) {
        let slots: Vec<usize> = (0..exec_order.len())
            .filter(|&s| matches!(ops[exec_order[s]], LogicalOp::LlmFilter { .. }))
            .collect();
        if slots.len() < 2 {
            return;
        }
        // Rank multiplier per plan op — identity unless a cascade is
        // configured. Every scheduled operator has run the batches so far,
        // so its stage is open.
        let mut factor = vec![1.0f64; ops.len()];
        if let Some(cc) = self.opt.cascade {
            for &s in &slots {
                let idx = exec_order[s];
                let (
                    LogicalOp::LlmFilter {
                        est: Some(e),
                        query,
                        ..
                    },
                    Some(stage),
                ) = (&ops[idx], &stages[idx])
                else {
                    continue;
                };
                let single = cc
                    .plan
                    .single_tier_per_row_cost(e.prompt_tokens_per_row, e.output_tokens_per_row);
                if single > 0.0 {
                    let esc_rate = self
                        .tier_posteriors
                        .borrow()
                        .get(&query.name)
                        .map_or(cc.plan.escalate_below, TierPosterior::escalation_rate);
                    factor[idx] *= cc.plan.expected_per_row_cost(
                        e.prompt_tokens_per_row,
                        e.output_tokens_per_row,
                        esc_rate,
                    ) / single;
                }
                let o = &stage.outcome.opt;
                let offered = o.rows_in.saturating_sub(o.cache_hits).max(1);
                factor[idx] *= o.llm_calls as f64 / offered as f64;
            }
        }
        let rank_of = |idx: usize| -> f64 {
            match &ops[idx] {
                LogicalOp::LlmFilter { est, .. } => {
                    let posterior = tracker.selectivity(idx);
                    let base = match (est, posterior) {
                        (Some(e), Some(s)) => e.with_selectivity(s).rank(&self.pricing),
                        (Some(e), None) => e.rank(&self.pricing),
                        (None, _) => return f64::INFINITY,
                    };
                    base * factor[idx]
                }
                _ => unreachable!("slots hold LLM filters only"),
            }
        };
        let mut ranked: Vec<usize> = slots.iter().map(|&s| exec_order[s]).collect();
        ranked.sort_by(|&a, &b| rank_of(a).total_cmp(&rank_of(b)));
        let current: Vec<usize> = slots.iter().map(|&s| exec_order[s]).collect();
        if ranked == current {
            return;
        }
        let describe = |order: &[usize]| -> String {
            order
                .iter()
                .map(|&idx| match &ops[idx] {
                    LogicalOp::LlmFilter { query, .. } => format!(
                        "{} (sel {:.2})",
                        query.name,
                        tracker.selectivity(idx).unwrap_or(f64::NAN)
                    ),
                    _ => unreachable!("slots hold LLM filters only"),
                })
                .collect::<Vec<_>>()
                .join("; ")
        };
        notes.push(format!(
            "adaptive re-rank after batch {batch_no}: [{}] → [{}]",
            describe(&current),
            describe(&ranked),
        ));
        if llmqo_obs::enabled() {
            llmqo_obs::registry().counter("sql.adaptive_reranks").inc();
        }
        for (&slot, &idx) in slots.iter().zip(&ranked) {
            if exec_order[slot] != idx {
                if let Some(stage) = &mut stages[idx] {
                    stage.outcome.opt.reranks += 1;
                }
            }
            exec_order[slot] = idx;
        }
    }

    /// Appends the partial-result degradation note for one operator batch:
    /// which original rows exhausted the fault retry budget and were
    /// excluded. Rendered verbatim as a `-- runtime:` line by
    /// `EXPLAIN ANALYZE`.
    fn note_failed_rows(&self, query: &LlmQuery, out: &StageOutcome, notes: &mut Vec<String>) {
        if out.failed_rows.is_empty() {
            return;
        }
        let budget = self.opt.faults.map_or(1, |f| f.max_attempts.max(1));
        notes.push(format!(
            "degraded {}: rows {:?} failed after {budget} attempt(s) each; \
             excluded from results (partial-result mode)",
            query.name, out.failed_rows,
        ));
        if llmqo_obs::enabled() {
            llmqo_obs::registry()
                .counter("sql.rows_failed")
                .add(out.failed_rows.len() as u64);
        }
    }
}

fn on_off(flag: bool) -> &'static str {
    if flag {
        "on"
    } else {
        "off"
    }
}

/// Applies a cheap predicate to a row set, preserving order.
fn filter_sql(table: &Table, rows: &[usize], pred: &SqlPredicate) -> Result<Vec<usize>, SqlError> {
    let col = table.schema().index_of(&pred.column).ok_or_else(|| {
        SqlError::Exec(ExecError::Table(TableError::UnknownColumn {
            name: pred.column.clone(),
        }))
    })?;
    Ok(rows
        .iter()
        .copied()
        .filter(|&r| pred.eval(table.value(r, col)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use llmqo_core::Ggr;
    use llmqo_serve::{
        Deployment, EngineConfig, GpuCluster, GpuSpec, ModelSpec, OracleLlm, SimEngine,
    };
    use llmqo_tokenizer::Tokenizer;

    #[test]
    fn parses_filter_statement() {
        let stmt = parse_sql(
            "SELECT movietitle FROM movies \
             WHERE LLM('kids?', movieinfo, reviewcontent) = 'Yes'",
        )
        .unwrap();
        assert_eq!(stmt.table, "movies");
        assert_eq!(
            stmt.projection,
            Projection::Columns(vec!["movietitle".into()])
        );
        assert!(!stmt.explain);
        match &stmt.where_clause[..] {
            [WhereConjunct::Llm {
                call,
                label,
                negated,
            }] => {
                assert_eq!(call.prompt, "kids?");
                assert_eq!(call.fields, vec!["movieinfo", "reviewcontent"]);
                assert_eq!(label, "Yes");
                assert!(!negated);
            }
            other => panic!("unexpected where clause {other:?}"),
        }
    }

    #[test]
    fn parses_projection_with_star_and_alias() {
        let stmt = parse_sql("SELECT LLM('Summarize: ', pr.*) AS summary FROM pr").unwrap();
        match stmt.projection {
            Projection::Llm { call, alias } => {
                assert!(call.star);
                assert_eq!(alias.as_deref(), Some("summary"));
            }
            other => panic!("unexpected projection {other:?}"),
        }
    }

    #[test]
    fn parses_aggregation() {
        let stmt =
            parse_sql("SELECT AVG(LLM('Rate 1-5', reviewcontent)) AS score FROM movies").unwrap();
        assert!(matches!(stmt.projection, Projection::AvgLlm { .. }));
    }

    #[test]
    fn parses_negated_predicate_and_limit() {
        let stmt =
            parse_sql("SELECT * FROM t WHERE LLM('sentiment', review) <> 'NEGATIVE' LIMIT 5")
                .unwrap();
        assert!(matches!(
            stmt.where_clause[0],
            WhereConjunct::Llm { negated: true, .. }
        ));
        assert_eq!(stmt.limit, Some(5));
    }

    #[test]
    fn parses_conjunctions_of_sql_and_llm_predicates() {
        let stmt = parse_sql(
            "SELECT a FROM t WHERE LLM('x?', a) = 'Yes' AND b = 'k' \
             AND score >= 3.5 AND LLM('y?', b) <> 'No' AND n < 10",
        )
        .unwrap();
        assert_eq!(stmt.where_clause.len(), 5);
        assert!(matches!(
            &stmt.where_clause[1],
            WhereConjunct::Sql(SqlPredicate { column, op: CmpOp::Eq, literal })
                if column == "b" && literal == "k"
        ));
        assert!(matches!(
            &stmt.where_clause[2],
            WhereConjunct::Sql(SqlPredicate { op: CmpOp::Ge, literal, .. }) if literal == "3.5"
        ));
        assert!(matches!(
            &stmt.where_clause[3],
            WhereConjunct::Llm { negated: true, .. }
        ));
        assert!(matches!(
            &stmt.where_clause[4],
            WhereConjunct::Sql(SqlPredicate { op: CmpOp::Lt, .. })
        ));
    }

    #[test]
    fn parses_explain_prefix() {
        let stmt = parse_sql("EXPLAIN SELECT a FROM t LIMIT 2").unwrap();
        assert!(stmt.explain);
        assert_eq!(stmt.limit, Some(2));
    }

    #[test]
    fn string_escapes_and_case_insensitive_keywords() {
        let stmt = parse_sql("select llm('it''s fine', a) from t").unwrap();
        match stmt.projection {
            Projection::Llm { call, .. } => assert_eq!(call.prompt, "it's fine"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn qualified_field_names_are_stripped() {
        let stmt = parse_sql("SELECT LLM('x', r.review, p.title) FROM rp").unwrap();
        match stmt.projection {
            Projection::Llm { call, .. } => {
                assert_eq!(call.fields, vec!["review", "title"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse_sql("SELECT FROM t").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
        assert!(!err.to_string().is_empty());
        assert!(parse_sql("SELECT a FROM t WHERE LLM('x' a) = 'Y'").is_err());
        assert!(parse_sql("SELECT a FROM t trailing garbage = ").is_err());
        assert!(parse_sql("SELECT a FROM t WHERE LLM('unterminated) = 'Y'").is_err());
        assert!(parse_sql("SELECT a FROM t WHERE b = ").is_err());
        assert!(parse_sql("SELECT a FROM t LIMIT 3.5").is_err());
    }

    fn fixture() -> (Table, FunctionalDeps) {
        let mut t = Table::new(Schema::of_strings(&["review", "product"]));
        for i in 0..30 {
            t.push_row(vec![
                format!("review {i} with details").into(),
                format!("product {}", i / 10).into(),
            ])
            .unwrap();
        }
        (t, FunctionalDeps::empty(2))
    }

    fn engine() -> SimEngine {
        SimEngine::new(
            Deployment::new(ModelSpec::llama3_8b(), GpuCluster::single(GpuSpec::l4())),
            EngineConfig::default(),
        )
    }

    #[test]
    fn runs_filter_statement_end_to_end() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("tickets", &table, &fds);
        let truth = |row: usize| {
            if row.is_multiple_of(2) {
                "Yes".into()
            } else {
                "No".into()
            }
        };
        let res = runner
            .run(
                "SELECT review FROM tickets WHERE LLM('good?', review, product) = 'Yes'",
                &truth,
            )
            .unwrap();
        assert_eq!(res.columns, vec!["review"]);
        assert_eq!(res.rows.len(), 15);
        assert!(res.rows[0][0].starts_with("review 0"));
        assert_eq!(res.stages.len(), 1);
    }

    #[test]
    fn runs_projection_over_filtered_rows() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        // Oracle truth: filter keeps rows < 10; projection echoes summaries.
        let truth = |row: usize| {
            if row < 10 {
                "Yes".to_string()
            } else {
                "No".to_string()
            }
        };
        let res = runner
            .run(
                "SELECT LLM('summarize', review, product) AS s FROM t \
                 WHERE LLM('keep?', review) = 'Yes'",
                &truth,
            )
            .unwrap();
        // Stage 2 ran over the 10 selected rows; truths are "Yes" because
        // the oracle echoes the (filter-style) truth function.
        assert_eq!(res.columns, vec!["s"]);
        assert_eq!(res.rows.len(), 10);
        assert_eq!(res.stages.len(), 2);
    }

    #[test]
    fn runs_aggregation() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |row: usize| ((row % 5) + 1).to_string();
        let res = runner
            .run(
                "SELECT AVG(LLM('rate', review, product)) AS score FROM t",
                &truth,
            )
            .unwrap();
        assert_eq!(res.aggregate, Some(3.0));
        assert_eq!(res.rows, vec![vec!["3.000".to_string()]]);
    }

    #[test]
    fn aggregation_respects_where_clause() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |row: usize| ((row % 5) + 1).to_string();
        let res = runner
            .run(
                "SELECT AVG(LLM('rate', review)) AS score FROM t \
                 WHERE product = 'product 0'",
                &truth,
            )
            .unwrap();
        // Rows 0..10 → truths 1,2,3,4,5,1,2,3,4,5 → average 3.
        assert_eq!(res.aggregate, Some(3.0));
        assert_eq!(res.stages.len(), 1);
        assert_eq!(res.stages[0].report.opt.rows_in, 10);
    }

    #[test]
    fn negated_filter_complements() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |row: usize| if row < 12 { "Yes".into() } else { "No".into() };
        let res = runner
            .run(
                "SELECT review FROM t WHERE LLM('keep?', review) <> 'Yes'",
                &truth,
            )
            .unwrap();
        assert_eq!(res.rows.len(), 18);
    }

    #[test]
    fn limit_truncates() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |_: usize| "Yes".to_string();
        let res = runner.run("SELECT * FROM t LIMIT 3", &truth).unwrap();
        assert_eq!(res.rows.len(), 3);
        assert_eq!(res.columns.len(), 2);
    }

    #[test]
    fn unknown_table_is_reported() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |_: usize| String::new();
        assert!(matches!(
            runner.run("SELECT a FROM missing", &truth),
            Err(SqlError::UnknownTable { .. })
        ));
    }

    #[test]
    fn unknown_predicate_column_is_reported() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |_: usize| String::new();
        assert!(matches!(
            runner.run("SELECT review FROM t WHERE nope = 'x'", &truth),
            Err(SqlError::Exec(ExecError::Table(
                TableError::UnknownColumn { .. }
            )))
        ));
    }

    #[test]
    fn sql_predicates_run_before_llm_filters() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let truth = |row: usize| {
            if row.is_multiple_of(2) {
                "Yes".into()
            } else {
                "No".into()
            }
        };
        // Written with the LLM predicate first: the optimizer must still
        // evaluate the cheap predicate first, so the LLM stage sees only the
        // 10 'product 1' rows.
        let sql = "SELECT review FROM t \
                   WHERE LLM('good?', review) = 'Yes' AND product = 'product 1'";
        let run_with = |opt: OptimizerConfig| {
            let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
            runner.register("t", &table, &fds);
            runner.run(sql, &truth).unwrap()
        };
        let optimized = run_with(OptimizerConfig::all());
        let oracle = run_with(OptimizerConfig::none());
        assert_eq!(
            optimized.rows, oracle.rows,
            "pushdown must not change results"
        );
        assert_eq!(optimized.rows.len(), 5);
        assert_eq!(optimized.stages[0].report.opt.rows_in, 10, "pushed down");
        assert_eq!(oracle.stages[0].report.opt.rows_in, 30, "written order");
    }

    #[test]
    fn llm_filters_are_ordered_by_estimated_rank() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |_: usize| "Yes".to_string();
        // Same selectivity prior (Yes/No); the product-only call serializes
        // fewer tokens per row, so it must run first despite being written
        // second.
        let res = runner
            .run(
                "SELECT review FROM t \
                 WHERE LLM('long review check?', review, product) = 'Yes' \
                 AND LLM('short?', product) = 'Yes'",
                &truth,
            )
            .unwrap();
        assert_eq!(res.stages.len(), 2);
        assert_eq!(res.stages[0].report.query, "sql-where-t-2", "cheap first");
        assert_eq!(res.stages[1].report.query, "sql-where-t");
        // Both filters pass everything under this truth; results are all rows.
        assert_eq!(res.rows.len(), 30);
    }

    #[test]
    fn dedup_shares_engine_requests_for_duplicate_rows() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let truth = |row: usize| if row < 15 { "Yes".into() } else { "No".into() };
        // Filter over `product` only: 3 distinct values across 30 rows.
        let sql = "SELECT review FROM t WHERE LLM('cheap?', product) = 'Yes'";
        let run_with = |opt: OptimizerConfig| {
            let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
            runner.register("t", &table, &fds);
            runner.run(sql, &truth).unwrap()
        };
        let optimized = run_with(OptimizerConfig::all());
        let oracle = run_with(OptimizerConfig::none());
        assert_eq!(optimized.rows, oracle.rows, "dedup must not change results");
        let opt = optimized.stages[0].report.opt;
        assert_eq!(opt.llm_calls, 3, "one request per distinct product");
        assert_eq!(opt.rows_deduped, 27);
        assert!(opt.prefill_tokens_saved > 0);
        assert_eq!(oracle.stages[0].report.opt.llm_calls, 30);
        assert_eq!(optimized.stages[0].report.engine.completed, 3);
    }

    #[test]
    fn lazy_limit_issues_fewer_engine_requests() {
        let mut t = Table::new(Schema::of_strings(&["review"]));
        for i in 0..200 {
            t.push_row(vec![format!("review number {i} body").into()])
                .unwrap();
        }
        let fds = FunctionalDeps::empty(1);
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let truth = |row: usize| {
            if row.is_multiple_of(2) {
                "Yes".into()
            } else {
                "No".into()
            }
        };
        let sql = "SELECT review FROM t WHERE LLM('keep?', review) = 'Yes' LIMIT 3";
        let run_with = |opt: OptimizerConfig| {
            let mut runner = SqlRunner::new(&executor, &solver).with_optimizer(opt);
            runner.register("t", &t, &fds);
            runner.run(sql, &truth).unwrap()
        };
        let optimized = run_with(OptimizerConfig::all());
        let oracle = run_with(OptimizerConfig::none());
        assert_eq!(
            optimized.rows, oracle.rows,
            "lazy LIMIT must not change results"
        );
        assert_eq!(optimized.rows.len(), 3);
        let (lazy, full) = (optimized.stages[0].report.opt, oracle.stages[0].report.opt);
        assert_eq!(full.llm_calls, 200, "oracle materializes everything");
        assert!(
            lazy.llm_calls < full.llm_calls,
            "lazy {} should be < full {}",
            lazy.llm_calls,
            full.llm_calls
        );
        assert!(lazy.batches >= 1);
    }

    #[test]
    fn lazy_limit_zero_issues_no_requests() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |_: usize| "Yes".to_string();
        let res = runner
            .run(
                "SELECT review FROM t WHERE LLM('keep?', review) = 'Yes' LIMIT 0",
                &truth,
            )
            .unwrap();
        assert!(res.rows.is_empty());
        assert_eq!(res.stages.len(), 1);
        assert_eq!(res.stages[0].report.opt.llm_calls, 0);
        assert_eq!(res.stages[0].report.engine.completed, 0);
    }

    #[test]
    fn explain_renders_optimized_plan() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let text = runner
            .explain(
                "SELECT review FROM t \
                 WHERE LLM('good?', review) = 'Yes' AND product = 'product 2' LIMIT 4",
            )
            .unwrap();
        let sql_pos = text.find("SqlFilter product = 'product 2'").unwrap();
        let llm_pos = text.find("LlmFilter sql-where-t").unwrap();
        assert!(
            llm_pos < sql_pos,
            "SQL predicate renders below the LLM op:\n{text}"
        );
        assert!(text.contains("Limit 4"));
        assert!(text.contains("Scan t"));
        assert!(text.contains("-- optimizer: dedup on, reorder on, lazy limit on"));
        assert!(text.contains("-- rewrite: reordered WHERE"));
        // The EXPLAIN statement form returns the same text as rows.
        let truth = |_: usize| String::new();
        let res = runner
            .run(
                "EXPLAIN SELECT review FROM t WHERE LLM('good?', review) = 'Yes'",
                &truth,
            )
            .unwrap();
        assert_eq!(res.columns, vec!["plan"]);
        assert!(res.stages.is_empty());
        assert!(res.rows.iter().any(|r| r[0].contains("Scan t")));
    }

    #[test]
    fn parses_explain_analyze_prefix() {
        let stmt = parse_sql("EXPLAIN ANALYZE SELECT review FROM t LIMIT 2").unwrap();
        assert!(stmt.explain);
        assert!(stmt.analyze);
        let plain = parse_sql("EXPLAIN SELECT review FROM t LIMIT 2").unwrap();
        assert!(plain.explain);
        assert!(!plain.analyze);
        // ANALYZE without EXPLAIN is just an unexpected keyword.
        assert!(parse_sql("ANALYZE SELECT review FROM t").is_err());
    }

    #[test]
    fn explain_analyze_reports_measured_stats() {
        let (table, fds) = fixture();
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        let truth = |row: usize| {
            if row.is_multiple_of(2) {
                "Yes".into()
            } else {
                "No".into()
            }
        };
        let res = runner
            .run(
                "EXPLAIN ANALYZE SELECT review FROM t \
                 WHERE LLM('good?', review) = 'Yes' AND product = 'product 1' LIMIT 4",
                &truth,
            )
            .unwrap();
        assert_eq!(res.columns, vec!["plan"]);
        let text: String = res
            .rows
            .iter()
            .map(|r| r[0].as_str())
            .collect::<Vec<_>>()
            .join("\n");
        // Exact per-node row accounting: 30 scanned, the cheap predicate
        // keeps product-1's ten rows, the LLM filter passes the even half.
        assert!(text.contains("Scan t  (rows 30)"), "{text}");
        assert!(
            text.contains("SqlFilter product = 'product 1'  (rows 30 → 10)"),
            "{text}"
        );
        let llm_line = res
            .rows
            .iter()
            .map(|r| r[0].as_str())
            .find(|l| l.contains("LlmFilter"))
            .expect("LLM filter line");
        for field in [
            "llm calls",
            "dedup saved",
            "cache saved",
            "re-ranks",
            "skipped",
            "sim ",
        ] {
            assert!(llm_line.contains(field), "missing `{field}` in {llm_line}");
        }
        // The Limit node reports materialized rows before → after truncation.
        let limit_line = res
            .rows
            .iter()
            .map(|r| r[0].as_str())
            .find(|l| l.contains("Limit 4"))
            .expect("limit line");
        assert!(limit_line.ends_with("→ 4)"), "{limit_line}");
        assert!(text.contains("-- optimizer: dedup on, reorder on, lazy limit on"));
        assert!(text.contains("-- rewrite: reordered WHERE"));
        // Unlike plain EXPLAIN, the statement really executed.
        assert_eq!(res.stages.len(), 1);
        assert!(res.stages[0].report.opt.llm_calls > 0);
        assert!(res.stages[0].report.engine.job_completion_time_s > 0.0);
    }

    /// Golden footer contract: `SqlResult::notes` adaptive events render in
    /// `EXPLAIN ANALYZE` output in schedule order with stable wording —
    /// `-- rewrite:` lines first (static optimizer), then one `-- runtime:`
    /// line per runtime note, verbatim and in the order they fired.
    #[test]
    fn explain_analyze_runtime_notes_follow_schedule_order() {
        let mut table = Table::new(Schema::of_strings(&["review", "note"]));
        for i in 0..400 {
            table
                .push_row(vec![
                    format!("a longer review body with several unique words number {i}").into(),
                    format!("note {i}").into(),
                ])
                .unwrap();
        }
        let fds = FunctionalDeps::empty(2);
        let eng = engine();
        let executor = QueryExecutor::new(&eng, &OracleLlm, Tokenizer::new());
        let solver = Ggr::default();
        let mut runner = SqlRunner::new(&executor, &solver);
        runner.register("t", &table, &fds);
        // Skewed truth flips the pilot order mid-query (see the adaptive
        // differential suite), so runtime notes are guaranteed to fire.
        let truth = |row: usize| {
            if row.is_multiple_of(20) {
                "Yes".to_string()
            } else {
                "No".to_string()
            }
        };
        let res = runner
            .run(
                "EXPLAIN ANALYZE SELECT note FROM t \
                 WHERE LLM('is the note recent?', note) <> 'Yes' \
                 AND LLM('is the review glowing?', review) = 'Yes'",
                &truth,
            )
            .unwrap();
        let lines: Vec<&str> = res.rows.iter().map(|r| r[0].as_str()).collect();
        let runtime_lines: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.starts_with("-- runtime: "))
            .collect();
        assert!(
            runtime_lines
                .iter()
                .any(|l| l.starts_with("-- runtime: adaptive re-rank after batch ")),
            "expected a re-rank runtime note, got: {lines:?}"
        );
        // Every runtime note appears exactly once, verbatim, in schedule
        // order (`res.notes` order, after the rewrite prefix).
        let runtime_notes: Vec<&str> = res
            .notes
            .iter()
            .map(String::as_str)
            .filter(|n| n.starts_with("adaptive"))
            .collect();
        assert_eq!(
            runtime_lines,
            runtime_notes
                .iter()
                .map(|n| format!("-- runtime: {n}"))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
            "runtime footer must mirror notes in schedule order"
        );
        // Rewrite lines all precede runtime lines.
        let last_rewrite = lines
            .iter()
            .rposition(|l| l.starts_with("-- rewrite: "))
            .unwrap_or(0);
        let first_runtime = lines
            .iter()
            .position(|l| l.starts_with("-- runtime: "))
            .expect("runtime notes present");
        assert!(last_rewrite < first_runtime, "{lines:?}");
    }
}
