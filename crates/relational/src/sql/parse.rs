//! The LLM-SQL parser: the statement AST and [`parse_sql`].

use super::lex::{lex, Tok};
use super::SqlError;
use crate::optimizer::{CmpOp, SqlPredicate};

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
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consumes the next token if it is the keyword `kw`.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = self.is_keyword(kw);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consumes the next token, which must be `want`.
    fn expect(&mut self, want: Tok, message: &str) -> Result<(), SqlError> {
        if self.next() == Some(want) {
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// Consumes the next token, which must be an identifier; a table
    /// qualifier (`t.field`) is stripped.
    fn expect_column(&mut self, message: &str) -> Result<String, SqlError> {
        match self.next() {
            Some(Tok::Ident(c)) => Ok(c.rsplit('.').next().unwrap_or(&c).to_string()),
            _ => Err(self.err(message)),
        }
    }

    fn parse_llm_call(&mut self) -> Result<LlmCall, SqlError> {
        self.expect_keyword("LLM")?;
        self.expect(Tok::LParen, "expected '(' after LLM")?;
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
                    if f.ends_with('.') {
                        self.expect(Tok::Star, "expected '*' after qualifier")?;
                        star = true;
                    } else {
                        let name = f.rsplit('.').next().unwrap_or(&f).to_string();
                        fields.push(name);
                    }
                }
                Some(Tok::Star) => star = true,
                _ => return Err(self.err("expected field reference")),
            }
        }
        self.expect(Tok::RParen, "expected ')' closing LLM call")?;
        Ok(LlmCall {
            prompt,
            fields,
            star,
        })
    }

    fn parse_alias(&mut self) -> Result<Option<String>, SqlError> {
        if self.eat_keyword("AS") {
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
            Some(Tok::Cmp(op)) => Ok(op),
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
                Some(Tok::Cmp(CmpOp::Eq)) => false,
                Some(Tok::Cmp(CmpOp::Ne)) => true,
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
            let column = self.expect_column("expected LLM call or column name")?;
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
        let explain = self.eat_keyword("EXPLAIN");
        let analyze = explain && self.eat_keyword("ANALYZE");
        self.expect_keyword("SELECT")?;
        let projection = if self.is_keyword("LLM") {
            let call = self.parse_llm_call()?;
            let alias = self.parse_alias()?;
            Projection::Llm { call, alias }
        } else if self.eat_keyword("AVG") {
            self.expect(Tok::LParen, "expected '(' after AVG")?;
            let call = self.parse_llm_call()?;
            self.expect(Tok::RParen, "expected ')' closing AVG")?;
            let alias = self.parse_alias()?;
            Projection::AvgLlm { call, alias }
        } else {
            let mut cols = Vec::new();
            loop {
                if self.peek() == Some(&Tok::Star) {
                    self.pos += 1;
                    cols.push("*".to_string());
                } else {
                    cols.push(self.expect_column("expected column name")?);
                }
                if self.peek() != Some(&Tok::Comma) {
                    break;
                }
                self.pos += 1;
            }
            Projection::Columns(cols)
        };

        self.expect_keyword("FROM")?;
        let table = match self.next() {
            Some(Tok::Ident(t)) => t,
            _ => return Err(self.err("expected table name")),
        };

        let mut where_clause = Vec::new();
        if self.eat_keyword("WHERE") {
            loop {
                where_clause.push(self.parse_where_conjunct()?);
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }

        let mut limit = None;
        if self.eat_keyword("LIMIT") {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    #[test]
    fn non_ascii_identifiers_lex_as_identifiers() {
        let stmt = parse_sql("SELECT é FROM t").unwrap();
        assert_eq!(stmt.projection, Projection::Columns(vec!["é".into()]));
        let stmt = parse_sql("SELECT 日本.列/名, _ü FROM таблица").unwrap();
        assert_eq!(
            stmt.projection,
            Projection::Columns(vec!["列/名".into(), "_ü".into()])
        );
        assert_eq!(stmt.table, "таблица");
    }

    #[test]
    fn non_ascii_literals_prompts_and_labels_round_trip() {
        let stmt =
            parse_sql("SELECT a FROM t WHERE g = 'café' AND LLM('naïve?', a) = 'Ünïcode'").unwrap();
        let want_call = LlmCall {
            prompt: "naïve?".into(),
            fields: vec!["a".into()],
            star: false,
        };
        assert_eq!(
            stmt.where_clause,
            vec![
                WhereConjunct::Sql(SqlPredicate {
                    column: "g".into(),
                    op: CmpOp::Eq,
                    literal: "café".into(),
                }),
                WhereConjunct::Llm {
                    call: want_call,
                    label: "Ünïcode".into(),
                    negated: false,
                },
            ]
        );
        // Escapes next to multi-byte text, and a literal that is only one.
        let stmt = parse_sql("SELECT LLM('l''été 🎈''', a) FROM t WHERE b <> ''''").unwrap();
        assert!(matches!(
            &stmt.projection,
            Projection::Llm { call, .. } if call.prompt == "l'été 🎈'"
        ));
        assert!(matches!(
            &stmt.where_clause[..],
            [WhereConjunct::Sql(SqlPredicate { literal, .. })] if literal == "'"
        ));
    }

    /// `input` parses, or fails with a position inside it.
    fn parses_or_fails_cleanly(input: &str) -> Result<(), TestCaseError> {
        match parse_sql(input) {
            Ok(_) => {}
            Err(SqlError::Parse { offset, .. }) => {
                prop_assert!(offset <= input.len(), "offset {offset} past {input:?}");
                prop_assert!(
                    input.is_char_boundary(offset),
                    "offset {offset} in {input:?}"
                );
            }
            Err(other) => prop_assert!(false, "{input:?}: not a parse error: {other}"),
        }
        Ok(())
    }

    #[test]
    fn error_offsets_are_byte_offsets_on_char_boundaries() {
        let offset_of = |sql: &str| match parse_sql(sql) {
            Err(SqlError::Parse { offset, message }) => (offset, message),
            other => panic!("{sql:?}: expected a parse error, got {other:?}"),
        };
        // The real char is reported, at its byte offset past `é` (2 bytes).
        let (offset, message) = offset_of("SELECT é FROM t WHERE a = €");
        assert_eq!((offset, message.as_str()), (27, "unexpected character '€'"));
        assert_eq!(offset_of("SELECT é FROM t WHERE g = 'thé").0, 27);
        assert_eq!(offset_of("SELECT é FROM t WHERE é 'x'").0, 26);
        // A count no `usize` holds and a number ending in its dot.
        let sql = "SELECT a FROM t LIMIT 99999999999999999999999";
        assert_eq!(offset_of(sql).1, "expected integer row count after LIMIT");
        assert_eq!(
            offset_of("SELECT a FROM t WHERE a = 3."),
            (27, "unexpected character '.'".into())
        );
        for sql in [
            sql,
            "SELECT a FROM t WHERE a = 3.",
            "",
            "'",
            "é",
            "SELECT 🎈",
        ] {
            parses_or_fails_cleanly(sql).unwrap();
        }
    }

    /// An AST node and the tokens that spell it.
    type Spelled<T> = (T, Vec<String>);

    fn keyword(word: &str, upper: bool) -> String {
        if upper {
            word.to_uppercase()
        } else {
            word.to_lowercase()
        }
    }

    fn quoted(text: &str) -> String {
        format!("'{}'", text.replace('\'', "''"))
    }

    fn ident() -> impl Strategy<Value = String> {
        prop::sample::select(vec!["a", "movietitle", "é", "日本語", "col_1", "x9", "_ü"])
            .prop_map(String::from)
    }

    /// String-literal contents: quotes to escape, multi-byte chars, text
    /// that looks like syntax.
    fn text() -> impl Strategy<Value = String> {
        let pool = vec![
            "Yes",
            "it's",
            "café",
            "''",
            "",
            "Ünïcode 🎈",
            "a, b (c) <> 'd'",
            "LIMIT 3",
        ];
        prop::sample::select(pool).prop_map(String::from)
    }

    fn call() -> impl Strategy<Value = Spelled<LlmCall>> {
        let parts = (
            text(),
            prop::collection::vec(ident(), 0..=3),
            prop::bool::ANY,
            prop::bool::ANY,
        );
        parts.prop_map(|(prompt, fields, star, upper)| {
            let mut toks = vec![keyword("llm", upper), "(".into(), quoted(&prompt)];
            for field in fields.iter().map(String::as_str).chain(star.then_some("*")) {
                toks.extend([",".to_string(), field.to_string()]);
            }
            toks.push(")".into());
            (
                LlmCall {
                    prompt,
                    fields,
                    star,
                },
                toks,
            )
        })
    }

    fn conjunct() -> impl Strategy<Value = Spelled<WhereConjunct>> {
        let ops = vec![
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let number = prop::sample::select(vec!["0", "42", "3.5", "007"]);
        let cheap = (
            ident(),
            prop::sample::select(ops),
            text(),
            number,
            prop::bool::ANY,
        );
        (call(), text(), prop::bool::ANY, cheap, prop::bool::ANY).prop_map(
            |((call, mut toks), label, negated, (column, op, text, number, is_text), is_llm)| {
                if is_llm {
                    toks.extend([if negated { "<>" } else { "=" }.to_string(), quoted(&label)]);
                    return (
                        WhereConjunct::Llm {
                            call,
                            label,
                            negated,
                        },
                        toks,
                    );
                }
                let (literal, spelled) = if is_text {
                    (text.clone(), quoted(&text))
                } else {
                    (number.to_string(), number.to_string())
                };
                let toks = vec![column.clone(), op.to_string(), spelled];
                (
                    WhereConjunct::Sql(SqlPredicate {
                        column,
                        op,
                        literal,
                    }),
                    toks,
                )
            },
        )
    }

    fn projection() -> impl Strategy<Value = Spelled<Projection>> {
        let alias = prop::sample::select(vec![None, Some("résumé".to_string())]);
        let columns = prop::collection::vec(ident(), 1..=3);
        (0usize..3, call(), alias, columns, prop::bool::ANY).prop_map(
            |(kind, (call, call_toks), alias, columns, upper)| {
                let aliased = |mut toks: Vec<String>| {
                    toks.extend(alias.iter().flat_map(|a| [keyword("as", upper), a.clone()]));
                    toks
                };
                match kind {
                    0 => {
                        let mut toks = vec![columns[0].clone()];
                        for column in &columns[1..] {
                            toks.extend([",".to_string(), column.clone()]);
                        }
                        (Projection::Columns(columns), toks)
                    }
                    1 => (
                        Projection::Llm {
                            call,
                            alias: alias.clone(),
                        },
                        aliased(call_toks),
                    ),
                    _ => {
                        let mut toks = vec![keyword("avg", upper), "(".into()];
                        toks.extend(call_toks);
                        toks.push(")".into());
                        (
                            Projection::AvgLlm {
                                call,
                                alias: alias.clone(),
                            },
                            aliased(toks),
                        )
                    }
                }
            },
        )
    }

    fn statement() -> impl Strategy<Value = Spelled<SqlStatement>> {
        let limit = prop::sample::select(vec![None, Some(0usize), Some(7), Some(100_000)]);
        let conjuncts = prop::collection::vec(conjunct(), 0..=3);
        (
            0usize..3,
            projection(),
            ident(),
            conjuncts,
            (limit, prop::bool::ANY),
        )
            .prop_map(
                |(explain, (projection, select_list), table, conjuncts, (limit, upper))| {
                    let mut toks: Vec<String> = ["explain", "analyze"][..explain]
                        .iter()
                        .map(|kw| keyword(kw, upper))
                        .collect();
                    toks.push(keyword("select", upper));
                    toks.extend(select_list);
                    toks.extend([keyword("from", upper), table.clone()]);
                    let mut where_clause = Vec::new();
                    for (i, (conjunct, spelled)) in conjuncts.into_iter().enumerate() {
                        toks.push(keyword(if i == 0 { "where" } else { "and" }, upper));
                        toks.extend(spelled);
                        where_clause.push(conjunct);
                    }
                    if let Some(n) = limit {
                        toks.extend([keyword("limit", upper), n.to_string()]);
                    }
                    let stmt = SqlStatement {
                        projection,
                        table,
                        where_clause,
                        limit,
                        explain: explain >= 1,
                        analyze: explain == 2,
                    };
                    (stmt, toks)
                },
            )
    }

    /// One token deleted, duplicated or swapped with another, or the text
    /// cut at a char boundary.
    fn mutate(toks: &[String], (kind, i, j): (usize, usize, usize)) -> String {
        let mut toks = toks.to_vec();
        let (i, j) = (i % toks.len(), j % toks.len());
        match kind {
            0 => drop(toks.remove(i)),
            1 => toks.insert(i, toks[i].clone()),
            2 => toks.swap(i, j),
            _ => {
                let text = toks.join(" ");
                return text
                    .chars()
                    .take(i.max(j) % (text.chars().count() + 1))
                    .collect();
            }
        }
        toks.join(" ")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary text — on its own and spliced into a statement, where
        /// it reaches every parser state — parses or fails with a position.
        #[test]
        fn arbitrary_text_never_panics(
            codes in prop::collection::vec(0u32..0x11_0000, 0..64),
            at in 0usize..1000,
        ) {
            let noise: String = codes.into_iter().filter_map(char::from_u32).collect();
            parses_or_fails_cleanly(&noise)?;
            let sql = "SELECT a FROM t WHERE g >= 'x' AND LLM('p', a, *) <> 'Yes' LIMIT 3";
            let (head, tail) = sql.split_at(at % (sql.len() + 1));
            parses_or_fails_cleanly(&format!("{head}{noise}{tail}"))?;
        }

        /// A generated statement parses to exactly the AST it spells, and
        /// any one-token mutation of it parses or fails with a position.
        #[test]
        fn statements_round_trip_and_mutants_fail_cleanly(
            (stmt, toks) in statement(),
            mutation in (0usize..4, 0usize..1000, 0usize..1000),
        ) {
            let sql = toks.join(" ");
            prop_assert_eq!(parse_sql(&sql).map_err(|e| e.to_string()), Ok(stmt));
            parses_or_fails_cleanly(&mutate(&toks, mutation))?;
        }
    }
}
