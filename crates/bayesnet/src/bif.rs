//! Reading and writing the **BIF** (Bayesian Interchange Format) text
//! format — the de-facto standard for discrete Bayesian networks, as
//! produced by bnlearn, the bnrepository, and the original Interchange
//! Format specification (Cozman, 1998).
//!
//! Supported constructs:
//!
//! * `network <name> { ... }` header (properties ignored);
//! * `variable <name> { type discrete [ n ] { s1, ..., sn }; }`;
//! * `probability ( child ) { table p1, ..., pn; }` — priors;
//! * `probability ( child | p1, ..., pk ) { (s1, ..., sk) q1, ...; ... }`
//!   — one row per parent configuration, by parent state names;
//! * the flat `table` form for conditionals, with the Interchange Format
//!   ordering: values enumerate (child, parents...) with the **rightmost
//!   variable changing fastest** — i.e. the child varies slowest.
//!
//! # Example
//!
//! ```
//! let src = r#"
//! network rain_demo { }
//! variable rain { type discrete [ 2 ] { no, yes }; }
//! variable grass { type discrete [ 2 ] { dry, wet }; }
//! probability ( rain ) { table 0.8, 0.2; }
//! probability ( grass | rain ) {
//!   (no)  0.9, 0.1;
//!   (yes) 0.2, 0.8;
//! }
//! "#;
//! let bif = evprop_bayesnet::bif::parse(src).unwrap();
//! assert_eq!(bif.network.num_vars(), 2);
//! assert_eq!(bif.var_id("grass").unwrap().index(), 1);
//! assert_eq!(bif.state_index("rain", "yes"), Some(1));
//! ```

use crate::{BayesError, BayesianNetwork, BayesianNetworkBuilder, Result};
use evprop_potential::VarId;
use std::fmt::Write as _;

/// A Bayesian network parsed from BIF, with the name tables needed to
/// address variables and states symbolically.
#[derive(Clone, Debug)]
pub struct BifNetwork {
    /// The parsed network (variable ids follow declaration order).
    pub network: BayesianNetwork,
    /// The network's declared name.
    pub name: String,
    /// Variable names, indexed by `VarId`.
    pub var_names: Vec<String>,
    /// State names per variable, indexed by `VarId` then state.
    pub state_names: Vec<Vec<String>>,
}

impl BifNetwork {
    /// Looks up a variable id by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// Looks up a state index by variable and state name.
    pub fn state_index(&self, var: &str, state: &str) -> Option<usize> {
        let v = self.var_id(var)?;
        self.state_names[v.index()].iter().position(|s| s == state)
    }

    /// The name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.var_names[var.index()]
    }

    /// The name of a variable's state.
    pub fn state_name(&self, var: VarId, state: usize) -> &str {
        &self.state_names[var.index()][state]
    }
}

/// Parse error with a line number and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BifParseError {
    /// 1-based line where the problem was detected.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BifParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BIF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BifParseError {}

// ----------------------------------------------------------------------
// tokenizer
// ----------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Punct(char), // { } ( ) [ ] , ; |
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    peeked: Option<(Tok, usize)>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            peeked: None,
        }
    }

    fn err(&self, message: impl Into<String>) -> BifParseError {
        BifParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn bump_line(&mut self, c: char) {
        if c == '\n' {
            self.line += 1;
        }
    }

    fn skip_ws_and_comments(&mut self) {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            let c = bytes[self.pos] as char;
            if c.is_whitespace() {
                self.bump_line(c);
                self.pos += 1;
            } else if c == '/' && bytes.get(self.pos + 1) == Some(&b'/') {
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else if c == '/' && bytes.get(self.pos + 1) == Some(&b'*') {
                self.pos += 2;
                while self.pos + 1 < bytes.len()
                    && !(bytes[self.pos] == b'*' && bytes[self.pos + 1] == b'/')
                {
                    self.bump_line(bytes[self.pos] as char);
                    self.pos += 1;
                }
                self.pos = (self.pos + 2).min(bytes.len());
            } else {
                break;
            }
        }
    }

    fn next_tok(&mut self) -> Option<(Tok, usize)> {
        if let Some(t) = self.peeked.take() {
            return Some(t);
        }
        self.skip_ws_and_comments();
        let bytes = self.src.as_bytes();
        if self.pos >= bytes.len() {
            return None;
        }
        let line = self.line;
        let c = bytes[self.pos] as char;
        if "{}()[],;|".contains(c) {
            self.pos += 1;
            return Some((Tok::Punct(c), line));
        }
        let start = self.pos;
        if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' {
            while self.pos < bytes.len() {
                let d = bytes[self.pos] as char;
                if d.is_ascii_digit() || "eE+-.".contains(d) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = &self.src[start..self.pos];
            if let Ok(n) = text.parse::<f64>() {
                return Some((Tok::Number(n), line));
            }
            // not a number after all — fall through as identifier
        }
        while self.pos < bytes.len() {
            let d = bytes[self.pos] as char;
            if d.is_whitespace() || "{}()[],;|".contains(d) {
                break;
            }
            self.pos += 1;
        }
        Some((Tok::Ident(self.src[start..self.pos].to_string()), line))
    }

    fn peek(&mut self) -> Option<&Tok> {
        if self.peeked.is_none() {
            self.peeked = self.next_tok();
        }
        self.peeked.as_ref().map(|(t, _)| t)
    }

    fn expect_ident(&mut self) -> std::result::Result<String, BifParseError> {
        match self.next_tok() {
            Some((Tok::Ident(s), _)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_punct(&mut self, c: char) -> std::result::Result<(), BifParseError> {
        match self.next_tok() {
            Some((Tok::Punct(p), _)) if p == c => Ok(()),
            other => Err(self.err(format!("expected '{c}', found {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> std::result::Result<f64, BifParseError> {
        match self.next_tok() {
            Some((Tok::Number(n), _)) => Ok(n),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }
}

// ----------------------------------------------------------------------
// parser
// ----------------------------------------------------------------------

struct RawVariable {
    name: String,
    states: Vec<String>,
}

struct RawProbability {
    child: String,
    parents: Vec<String>,
    /// Rows keyed by parent state names (empty key = `table` form).
    rows: Vec<(Vec<String>, Vec<f64>)>,
    line: usize,
}

/// Parses BIF source text into a [`BifNetwork`].
///
/// # Errors
///
/// [`BifParseError`] (wrapped in [`BayesError::Bif`]) for syntax
/// problems; CPT shape/normalization errors surface as their
/// [`BayesError`] variants.
pub fn parse(src: &str) -> Result<BifNetwork> {
    let mut lx = Lexer::new(src);
    let mut net_name = String::from("unnamed");
    let mut variables: Vec<RawVariable> = Vec::new();
    let mut probabilities: Vec<RawProbability> = Vec::new();

    while let Some(tok) = lx.peek().cloned() {
        match tok {
            Tok::Ident(kw) if kw == "network" => {
                lx.next_tok();
                net_name = lx.expect_ident().map_err(BayesError::Bif)?;
                skip_block(&mut lx).map_err(BayesError::Bif)?;
            }
            Tok::Ident(kw) if kw == "variable" => {
                lx.next_tok();
                variables.push(parse_variable(&mut lx).map_err(BayesError::Bif)?);
            }
            Tok::Ident(kw) if kw == "probability" => {
                lx.next_tok();
                probabilities.push(parse_probability(&mut lx).map_err(BayesError::Bif)?);
            }
            other => {
                return Err(BayesError::Bif(
                    lx.err(format!("expected a declaration, found {other:?}")),
                ))
            }
        }
    }

    assemble(net_name, variables, probabilities)
}

fn skip_block(lx: &mut Lexer<'_>) -> std::result::Result<(), BifParseError> {
    lx.expect_punct('{')?;
    let mut depth = 1;
    while depth > 0 {
        match lx.next_tok() {
            Some((Tok::Punct('{'), _)) => depth += 1,
            Some((Tok::Punct('}'), _)) => depth -= 1,
            Some(_) => {}
            None => return Err(lx.err("unterminated block")),
        }
    }
    Ok(())
}

fn parse_variable(lx: &mut Lexer<'_>) -> std::result::Result<RawVariable, BifParseError> {
    let name = lx.expect_ident()?;
    lx.expect_punct('{')?;
    let kw = lx.expect_ident()?;
    if kw != "type" {
        return Err(lx.err(format!("expected 'type', found '{kw}'")));
    }
    let kind = lx.expect_ident()?;
    if kind != "discrete" {
        return Err(lx.err(format!(
            "only discrete variables are supported, found '{kind}'"
        )));
    }
    lx.expect_punct('[')?;
    let n = lx.expect_number()? as usize;
    lx.expect_punct(']')?;
    lx.expect_punct('{')?;
    let mut states = Vec::with_capacity(n);
    loop {
        states.push(lx.expect_ident()?);
        match lx.next_tok() {
            Some((Tok::Punct(','), _)) => continue,
            Some((Tok::Punct('}'), _)) => break,
            other => return Err(lx.err(format!("expected ',' or '}}', found {other:?}"))),
        }
    }
    lx.expect_punct(';')?;
    lx.expect_punct('}')?;
    if states.len() != n {
        return Err(lx.err(format!(
            "variable '{name}' declares {n} states but lists {}",
            states.len()
        )));
    }
    Ok(RawVariable { name, states })
}

fn parse_probability(lx: &mut Lexer<'_>) -> std::result::Result<RawProbability, BifParseError> {
    let line = lx.line;
    lx.expect_punct('(')?;
    let child = lx.expect_ident()?;
    let mut parents = Vec::new();
    loop {
        match lx.next_tok() {
            Some((Tok::Punct(')'), _)) => break,
            Some((Tok::Punct('|'), _)) | Some((Tok::Punct(','), _)) => {
                parents.push(lx.expect_ident()?);
            }
            other => return Err(lx.err(format!("expected ')', '|' or ',', found {other:?}"))),
        }
    }
    lx.expect_punct('{')?;
    let mut rows = Vec::new();
    loop {
        match lx.next_tok() {
            Some((Tok::Punct('}'), _)) => break,
            Some((Tok::Ident(kw), _)) if kw == "table" => {
                let mut vals = Vec::new();
                loop {
                    vals.push(lx.expect_number()?);
                    match lx.next_tok() {
                        Some((Tok::Punct(','), _)) => continue,
                        Some((Tok::Punct(';'), _)) => break,
                        other => {
                            return Err(lx.err(format!("expected ',' or ';', found {other:?}")))
                        }
                    }
                }
                rows.push((Vec::new(), vals));
            }
            Some((Tok::Punct('('), _)) => {
                let mut key = Vec::new();
                loop {
                    key.push(lx.expect_ident()?);
                    match lx.next_tok() {
                        Some((Tok::Punct(','), _)) => continue,
                        Some((Tok::Punct(')'), _)) => break,
                        other => {
                            return Err(lx.err(format!("expected ',' or ')', found {other:?}")))
                        }
                    }
                }
                let mut vals = Vec::new();
                loop {
                    vals.push(lx.expect_number()?);
                    match lx.next_tok() {
                        Some((Tok::Punct(','), _)) => continue,
                        Some((Tok::Punct(';'), _)) => break,
                        other => {
                            return Err(lx.err(format!("expected ',' or ';', found {other:?}")))
                        }
                    }
                }
                rows.push((key, vals));
            }
            other => return Err(lx.err(format!("expected 'table', '(' or '}}', found {other:?}"))),
        }
    }
    Ok(RawProbability {
        child,
        parents,
        rows,
        line,
    })
}

fn assemble(
    name: String,
    variables: Vec<RawVariable>,
    probabilities: Vec<RawProbability>,
) -> Result<BifNetwork> {
    let mut b = BayesianNetworkBuilder::new();
    let mut var_names = Vec::with_capacity(variables.len());
    let mut state_names = Vec::with_capacity(variables.len());
    for v in &variables {
        if var_names.contains(&v.name) {
            return Err(BayesError::Bif(BifParseError {
                line: 0,
                message: format!("variable '{}' declared twice", v.name),
            }));
        }
        b.add_variable(v.states.len());
        var_names.push(v.name.clone());
        state_names.push(v.states.clone());
    }
    let lookup = |n: &str, line: usize| -> Result<usize> {
        var_names.iter().position(|x| x == n).ok_or_else(|| {
            BayesError::Bif(BifParseError {
                line,
                message: format!("unknown variable '{n}'"),
            })
        })
    };

    for p in probabilities {
        let child_idx = lookup(&p.child, p.line)?;
        let child_card = state_names[child_idx].len();
        let parent_idx: Vec<usize> = p
            .parents
            .iter()
            .map(|n| lookup(n, p.line))
            .collect::<Result<_>>()?;
        let parent_cards: Vec<usize> = parent_idx.iter().map(|&i| state_names[i].len()).collect();
        let n_configs: usize = parent_cards.iter().product();

        let mut cpt_rows: Vec<Option<Vec<f64>>> = vec![None; n_configs];
        for (key, vals) in p.rows {
            if key.is_empty() {
                // `table` form: child varies slowest, rightmost parent fastest
                if vals.len() != n_configs * child_card {
                    return Err(BayesError::Bif(BifParseError {
                        line: p.line,
                        message: format!(
                            "table for '{}' has {} values, expected {}",
                            p.child,
                            vals.len(),
                            n_configs * child_card
                        ),
                    }));
                }
                for (cfg, row) in cpt_rows.iter_mut().enumerate() {
                    let mut dist = Vec::with_capacity(child_card);
                    for s in 0..child_card {
                        dist.push(vals[s * n_configs + cfg]);
                    }
                    *row = Some(dist);
                }
            } else {
                if key.len() != parent_idx.len() {
                    return Err(BayesError::Bif(BifParseError {
                        line: p.line,
                        message: format!(
                            "row for '{}' keys {} parents, expected {}",
                            p.child,
                            key.len(),
                            parent_idx.len()
                        ),
                    }));
                }
                // flat parent-config index, last parent fastest
                let mut cfg = 0usize;
                for ((state_name, &pi), &card) in key.iter().zip(&parent_idx).zip(&parent_cards) {
                    let s = state_names[pi]
                        .iter()
                        .position(|x| x == state_name)
                        .ok_or_else(|| {
                            BayesError::Bif(BifParseError {
                                line: p.line,
                                message: format!(
                                    "unknown state '{state_name}' of '{}'",
                                    var_names[pi]
                                ),
                            })
                        })?;
                    cfg = cfg * card + s;
                }
                if vals.len() != child_card {
                    return Err(BayesError::Bif(BifParseError {
                        line: p.line,
                        message: format!(
                            "row for '{}' has {} values, expected {child_card}",
                            p.child,
                            vals.len()
                        ),
                    }));
                }
                cpt_rows[cfg] = Some(vals);
            }
        }
        let rows: Vec<Vec<f64>> = cpt_rows
            .into_iter()
            .enumerate()
            .map(|(cfg, r)| {
                r.ok_or_else(|| {
                    BayesError::Bif(BifParseError {
                        line: p.line,
                        message: format!(
                            "probability for '{}' is missing parent configuration {cfg}",
                            p.child
                        ),
                    })
                })
            })
            .collect::<Result<_>>()?;
        let parent_ids: Vec<VarId> = parent_idx.iter().map(|&i| VarId(i as u32)).collect();
        b.set_cpt(VarId(child_idx as u32), &parent_ids, rows)?;
    }

    Ok(BifNetwork {
        network: b.build()?,
        name,
        var_names,
        state_names,
    })
}

// ----------------------------------------------------------------------
// writer
// ----------------------------------------------------------------------

/// Serializes a network (with names) back to BIF text. `parse(write(x))`
/// reproduces the same network.
pub fn write(bif: &BifNetwork) -> String {
    let net = &bif.network;
    let mut out = String::new();
    let _ = writeln!(out, "network {} {{\n}}", bif.name);
    for (i, name) in bif.var_names.iter().enumerate() {
        let states = bif.state_names[i].join(", ");
        let _ = writeln!(
            out,
            "variable {name} {{\n  type discrete [ {} ] {{ {states} }};\n}}",
            bif.state_names[i].len()
        );
    }
    for i in 0..net.num_vars() {
        let v = VarId(i as u32);
        let cpt = net.cpt(v);
        let child = &bif.var_names[i];
        if cpt.parents().is_empty() {
            let prior: Vec<String> = (0..net.var(v).cardinality())
                .map(|s| format!("{}", cpt.table().get(&[s])))
                .collect();
            let _ = writeln!(
                out,
                "probability ( {child} ) {{\n  table {};\n}}",
                prior.join(", ")
            );
        } else {
            let parents: Vec<String> = cpt
                .parents()
                .iter()
                .map(|p| bif.var_names[p.id().index()].clone())
                .collect();
            let _ = writeln!(out, "probability ( {child} | {} ) {{", parents.join(", "));
            // enumerate parent configs in user order, last parent fastest
            let cards: Vec<usize> = cpt.parents().iter().map(|p| p.cardinality()).collect();
            let n_cfg: usize = cards.iter().product();
            for cfg in 0..n_cfg {
                // decode cfg
                let mut rem = cfg;
                let mut states = vec![0usize; cards.len()];
                for j in (0..cards.len()).rev() {
                    states[j] = rem % cards[j];
                    rem /= cards[j];
                }
                let key: Vec<String> = states
                    .iter()
                    .zip(cpt.parents())
                    .map(|(&s, p)| bif.state_names[p.id().index()][s].clone())
                    .collect();
                // read P(child = s | this config) from the canonical table
                let dom = cpt.table().domain();
                let mut assignment = vec![0usize; dom.width()];
                let row: Vec<String> = (0..net.var(v).cardinality())
                    .map(|cs| {
                        for (pos, dv) in dom.vars().iter().enumerate() {
                            assignment[pos] = if dv.id() == v {
                                cs
                            } else {
                                let k = cpt
                                    .parents()
                                    .iter()
                                    .position(|p| p.id() == dv.id())
                                    .expect("domain vars are child or parents");
                                states[k]
                            };
                        }
                        format!("{}", cpt.table().get(&assignment))
                    })
                    .collect();
                let _ = writeln!(out, "  ({}) {};", key.join(", "), row.join(", "));
            }
            let _ = writeln!(out, "}}");
        }
    }
    out
}

/// Wraps an anonymous network with generated names (`v0`, `v1`, ...;
/// states `s0`, `s1`, ...), so any [`BayesianNetwork`] can be exported.
pub fn with_generated_names(network: BayesianNetwork, name: &str) -> BifNetwork {
    let var_names: Vec<String> = (0..network.num_vars()).map(|i| format!("v{i}")).collect();
    let state_names: Vec<Vec<String>> = (0..network.num_vars())
        .map(|i| {
            (0..network.var(VarId(i as u32)).cardinality())
                .map(|s| format!("s{s}"))
                .collect()
        })
        .collect();
    BifNetwork {
        network,
        name: name.to_string(),
        var_names,
        state_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{networks, JointDistribution};
    use evprop_potential::EvidenceSet;

    const ASIA_BIF: &str = r#"
// Lauritzen-Spiegelhalter chest clinic, bnlearn-style BIF
network asia { }
variable asia  { type discrete [ 2 ] { no, yes }; }
variable tub   { type discrete [ 2 ] { no, yes }; }
variable smoke { type discrete [ 2 ] { no, yes }; }
variable lung  { type discrete [ 2 ] { no, yes }; }
variable bronc { type discrete [ 2 ] { no, yes }; }
variable either{ type discrete [ 2 ] { no, yes }; }
variable xray  { type discrete [ 2 ] { no, yes }; }
variable dysp  { type discrete [ 2 ] { no, yes }; }
probability ( asia )  { table 0.99, 0.01; }
probability ( smoke ) { table 0.5, 0.5; }
probability ( tub | asia ) {
  (no)  0.99, 0.01;
  (yes) 0.95, 0.05;
}
probability ( lung | smoke ) {
  (no)  0.99, 0.01;
  (yes) 0.9, 0.1;
}
probability ( bronc | smoke ) {
  (no)  0.7, 0.3;
  (yes) 0.4, 0.6;
}
probability ( either | tub, lung ) {
  (no, no)   1.0, 0.0;
  (no, yes)  0.0, 1.0;
  (yes, no)  0.0, 1.0;
  (yes, yes) 0.0, 1.0;
}
probability ( xray | either ) {
  (no)  0.95, 0.05;
  (yes) 0.02, 0.98;
}
probability ( dysp | either, bronc ) {
  (no, no)   0.9, 0.1;
  (no, yes)  0.2, 0.8;
  (yes, no)  0.3, 0.7;
  (yes, yes) 0.1, 0.9;
}
"#;

    #[test]
    fn parses_asia_and_matches_builtin() {
        let bif = parse(ASIA_BIF).unwrap();
        assert_eq!(bif.name, "asia");
        assert_eq!(bif.network.num_vars(), 8);
        let builtin = networks::asia();
        // same joint distribution
        let ja = JointDistribution::of(&bif.network).unwrap();
        let jb = JointDistribution::of(&builtin).unwrap();
        assert!(ja.table().approx_eq(jb.table(), 1e-12));
    }

    #[test]
    fn name_lookups() {
        let bif = parse(ASIA_BIF).unwrap();
        assert_eq!(bif.var_id("dysp"), Some(VarId(7)));
        assert_eq!(bif.state_index("dysp", "yes"), Some(1));
        assert_eq!(bif.var_name(VarId(0)), "asia");
        assert_eq!(bif.state_name(VarId(0), 1), "yes");
        assert_eq!(bif.var_id("nope"), None);
    }

    #[test]
    fn table_form_for_conditionals() {
        // child varies slowest, parent fastest (Interchange Format order)
        let src = r#"
network t { }
variable a { type discrete [ 2 ] { a0, a1 }; }
variable b { type discrete [ 2 ] { b0, b1 }; }
probability ( a ) { table 0.3, 0.7; }
probability ( b | a ) { table 0.9, 0.4, 0.1, 0.6; }
"#;
        let bif = parse(src).unwrap();
        // P(b=b0|a=a0)=0.9, P(b=b0|a=a1)=0.4, P(b=b1|a=a0)=0.1, P(b=b1|a=a1)=0.6
        let cpt = bif.network.cpt(VarId(1));
        assert_eq!(cpt.table().get(&[0, 0]), 0.9); // canonical domain (a, b)? (V0,V1)=(a,b)
        let j = JointDistribution::of(&bif.network).unwrap();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(0), 1);
        let m = j.marginal(VarId(1), &ev).unwrap();
        assert!((m.data()[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_write_parse() {
        let bif = parse(ASIA_BIF).unwrap();
        let text = write(&bif);
        let again = parse(&text).unwrap();
        let ja = JointDistribution::of(&bif.network).unwrap();
        let jb = JointDistribution::of(&again.network).unwrap();
        assert!(ja.table().approx_eq(jb.table(), 1e-12));
        assert_eq!(bif.var_names, again.var_names);
        assert_eq!(bif.state_names, again.state_names);
    }

    #[test]
    fn generated_names_export() {
        let bif = with_generated_names(networks::student(), "student");
        let text = write(&bif);
        let again = parse(&text).unwrap();
        assert_eq!(again.network.num_vars(), 5);
        assert_eq!(again.var_name(VarId(2)), "v2");
        let ja = JointDistribution::of(&bif.network).unwrap();
        let jb = JointDistribution::of(&again.network).unwrap();
        assert!(ja.table().approx_eq(jb.table(), 1e-12));
    }

    #[test]
    fn errors_are_located() {
        let bad = "network x { }\nvariable y { type discrete [ 2 ] { a, b }; }\nprobability ( z ) { table 1.0; }";
        let err = parse(bad).unwrap_err();
        assert!(err.to_string().contains("unknown variable 'z'"));

        let bad2 = "variable y { type continuous [ 2 ] { a, b }; }";
        assert!(parse(bad2).is_err());

        let bad3 = "probability ( ";
        assert!(parse(bad3).is_err());
    }

    #[test]
    fn missing_parent_config_rejected() {
        let src = r#"
network t { }
variable a { type discrete [ 2 ] { a0, a1 }; }
variable b { type discrete [ 2 ] { b0, b1 }; }
probability ( a ) { table 0.3, 0.7; }
probability ( b | a ) { (a0) 0.9, 0.1; }
"#;
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("missing parent configuration"));
    }

    #[test]
    fn negative_and_non_finite_probabilities_rejected() {
        // `1e999` lexes to +inf; inf + -inf is a NaN row sum.
        for (row, entry) in [("1.5, -0.5", "-0.5"), ("1e999, -1e999", "inf")] {
            let src = format!(
                "network t {{ }}\nvariable a {{ type discrete [ 2 ] {{ a0, a1 }}; }}\n\
                 probability ( a ) {{ table {row}; }}"
            );
            let err = parse(&src).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "CPT of V0 has entry {entry} at parent configuration 0; \
                     probabilities must be finite and >= 0"
                )
            );
        }
    }

    #[test]
    fn comments_and_whitespace_tolerated() {
        let src = "/* header */\nnetwork c { } // trailing\nvariable v { type discrete [ 2 ] { x, y }; }\nprobability ( v ) { table 0.5, 0.5; }";
        let bif = parse(src).unwrap();
        assert_eq!(bif.network.num_vars(), 1);
    }
}
