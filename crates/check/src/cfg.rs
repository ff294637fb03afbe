//! Intraprocedural control-flow graphs for the obligation analyzer.
//!
//! Built on the token stream from [`crate::lex`]: tokens are first nested
//! into a delimiter tree ([`build_tree`]), then every `fn` body is lowered
//! into basic blocks with explicit branch edges for `if`/`else` chains,
//! `match` arms, `loop`/`while`/`for` (with back edges and labelled
//! `break`/`continue`), `let … else` divergence, `return`, and the `?`
//! operator (which splits its block and adds an early-exit edge *at the
//! split point*, so events before and after the `?` land on the right
//! side of the edge).
//!
//! While lowering, the builder extracts the protocol **events** the
//! dataflow pass consumes: keep births (`ll`/`wll`/`llx`) and keep
//! consumers (`sc`/`vl`/`cl`/`scx`/`vlx`/`unlink`), with the keep operand
//! identified positionally from the known call signatures (see
//! [`scan_call`] for the arity table). Known approximations, documented
//! in `DESIGN.md` §16: closure bodies are inlined at their definition
//! site (treated as executed exactly once), expression-position `match`
//! inside call arguments is scanned linearly, and array indices are
//! erased from keep identities (`keeps[i]` → `keeps[]`).

use crate::lex::{lex, TokKind, Token};

// ---------------------------------------------------------------------------
// Token tree
// ---------------------------------------------------------------------------

/// A token or a delimited group in the nesting tree.
#[derive(Clone, Debug)]
pub enum Tt {
    /// A leaf token.
    Tok(Token),
    /// A `(…)`, `[…]` or `{…}` group.
    Group(Group),
}

/// A delimited group: its opening delimiter, source line, and children.
#[derive(Clone, Debug)]
pub struct Group {
    /// `'('`, `'['` or `'{'`.
    pub open: char,
    /// 1-based line of the opening delimiter.
    pub line: u32,
    /// Nested tokens and groups.
    pub items: Vec<Tt>,
}

impl Tt {
    fn line(&self) -> u32 {
        match self {
            Tt::Tok(t) => t.line,
            Tt::Group(g) => g.line,
        }
    }

    fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tt::Tok(t) if t.is_ident(s))
    }

    fn is_punct(&self, s: &str) -> bool {
        matches!(self, Tt::Tok(t) if t.is_punct(s))
    }

    fn as_group(&self, open: char) -> Option<&Group> {
        match self {
            Tt::Group(g) if g.open == open => Some(g),
            _ => None,
        }
    }

    fn ident_text(&self) -> Option<&str> {
        match self {
            Tt::Tok(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }
}

/// Nests a flat token stream into a delimiter tree. Unbalanced closers
/// are dropped; unclosed groups end at EOF (robustness over strictness —
/// the scanned sources are compiler-checked long before they get here).
#[must_use]
pub fn build_tree(tokens: &[Token]) -> Vec<Tt> {
    fn close_of(open: &str) -> char {
        match open {
            "(" => ')',
            "[" => ']',
            _ => '}',
        }
    }
    let mut stack: Vec<Group> = vec![Group { open: '#', line: 0, items: Vec::new() }];
    for t in tokens {
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{") {
            stack.push(Group {
                open: t.text.chars().next().unwrap_or('('),
                line: t.line,
                items: Vec::new(),
            });
        } else if t.kind == TokKind::Punct
            && matches!(t.text.as_str(), ")" | "]" | "}")
            && stack.len() > 1
            && t.text.chars().next().unwrap_or(')')
                == close_of(&stack[stack.len() - 1].open.to_string())
        {
            let g = stack.pop().expect("len > 1");
            stack
                .last_mut()
                .expect("root never popped")
                .items
                .push(Tt::Group(g));
        } else {
            stack
                .last_mut()
                .expect("root never popped")
                .items
                .push(Tt::Tok(t.clone()));
        }
    }
    while stack.len() > 1 {
        let g = stack.pop().expect("len > 1");
        stack
            .last_mut()
            .expect("root never popped")
            .items
            .push(Tt::Group(g));
    }
    stack.pop().map(|g| g.items).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A keep-protocol event inside a basic block, in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Birth (`ll`/`wll`/`llx`) or consumption (`sc`/`vl`/`cl`/`scx`/
    /// `vlx`/`unlink`).
    pub kind: EventKind,
    /// The keep identity: the operand identifier (`keep`, `h.keep`,
    /// `keeps[]`), or `@recv` for receiver-managed keeps (one-argument
    /// keep-search style calls), or [`UNBOUND_LLX`] for an `llx` whose
    /// handle binding could not be identified.
    pub keep: String,
    /// The protocol method that produced the event.
    pub method: &'static str,
    /// 1-based source line of the call.
    pub line: u32,
}

/// Birth or consumption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The keep becomes live (an LL–SC sequence opens).
    Birth,
    /// The keep is resolved (SC/VL/CL/SCX/VLX/unlink).
    Consume,
}

/// Keep identity used for an `llx` call whose result binding could not
/// be determined (reported as a leak unless annotated).
pub const UNBOUND_LLX: &str = "<unbound llx handle>";

/// Methods that open an LL–SC sequence.
const BIRTH_METHODS: &[&str] = &["ll", "wll", "llx"];
/// Methods that resolve one (or several, for `scx`/`vlx`).
const CONSUME_METHODS: &[&str] = &["sc", "vl", "cl", "scx", "vlx", "unlink"];
/// The multi-word LLX/SCX family — clients of these may transiently hold
/// one extra helping sequence (see `PROVIDER_K` certification).
const LLX_FAMILY: &[&str] = &["llx", "scx", "vlx", "unlink"];

/// Protocol verbs: functions *named* like the protocol itself are its
/// implementations (trait impls, delegating wrappers); their keeps belong
/// to their callers, so the leak verdict does not apply to them.
pub const PROTOCOL_FN_NAMES: &[&str] =
    &["ll", "sc", "vl", "cl", "wll", "llx", "scx", "vlx", "unlink"];

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

/// A basic block: events in order, successor edges, and an optional edge
/// to the (virtual) function exit.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// 1-based line of the first token lowered into this block (0 if
    /// empty — join blocks often are).
    pub line: u32,
    /// Keep events, in program order.
    pub events: Vec<Event>,
    /// Successor block indices.
    pub succs: Vec<usize>,
    /// `Some((line, kind))` if control can leave the function from the
    /// *end* of this block: `kind` is `"return"`, `"?"` or `"end"`.
    pub exit: Option<(u32, &'static str)>,
}

/// A function's control-flow graph. Block 0 is the entry.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    /// The blocks; index 0 is the entry block.
    pub blocks: Vec<Block>,
}

/// A parsed function with its CFG.
#[derive(Clone, Debug)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter binding names (`self` and `_`-prefixed names included).
    pub params: Vec<String>,
    /// The lowered control-flow graph.
    pub cfg: Cfg,
    /// True if the body uses the multi-word LLX/SCX family.
    pub uses_llx_family: bool,
    /// The body's token tree (used by token-level passes such as the
    /// backoff-discipline lint).
    pub body: Group,
}

struct LoopCtx {
    label: Option<String>,
    break_to: usize,
    continue_to: usize,
}

struct Builder {
    blocks: Vec<Block>,
    uses_llx_family: bool,
    /// Bindings of the innermost pending `let`, cleared at `;`.
    pending_let: Vec<String>,
}

impl Builder {
    fn new_block(&mut self, line: u32) -> usize {
        self.blocks.push(Block { line, ..Block::default() });
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn touch(&mut self, block: usize, line: u32) {
        if self.blocks[block].line == 0 {
            self.blocks[block].line = line;
        }
    }

    /// Lowers a statement sequence starting in `cur`; returns the block
    /// where control continues after the sequence.
    #[allow(clippy::too_many_lines)]
    fn seq(&mut self, items: &[Tt], mut cur: usize, loops: &mut Vec<LoopCtx>) -> usize {
        let mut i = 0usize;
        let mut pending_label: Option<String> = None;
        while i < items.len() {
            let it = &items[i];
            self.touch(cur, it.line());
            // Loop labels: 'name :
            if let Tt::Tok(t) = it {
                if t.kind == TokKind::Lifetime && items.get(i + 1).is_some_and(|n| n.is_punct(":"))
                {
                    pending_label = Some(t.text.clone());
                    i += 2;
                    continue;
                }
            }
            // Attributes inside bodies: # [ … ]
            if it.is_punct("#") && items.get(i + 1).and_then(|n| n.as_group('[')).is_some() {
                i += 2;
                continue;
            }
            // Nested `fn` items get their own CFG elsewhere; skip the
            // whole item (signature through body or `;`).
            if it.is_ident("fn") {
                i += 1;
                while i < items.len() {
                    if items[i].is_punct(";") {
                        i += 1;
                        break;
                    }
                    if items[i].as_group('{').is_some() {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
            if it.is_ident("if") {
                let (ni, after) = self.lower_if(items, i, cur, loops);
                i = ni;
                cur = after;
                continue;
            }
            if it.is_ident("match") {
                let (ni, after) = self.lower_match(items, i, cur, loops);
                i = ni;
                cur = after;
                continue;
            }
            if it.is_ident("loop") {
                let label = pending_label.take();
                let Some(body) = items.get(i + 1).and_then(|n| n.as_group('{')) else {
                    i += 1;
                    continue;
                };
                let head = self.new_block(body.line);
                self.edge(cur, head);
                let join = self.new_block(0);
                loops.push(LoopCtx { label, break_to: join, continue_to: head });
                let end = self.seq(&body.items, head, loops);
                self.edge(end, head);
                loops.pop();
                cur = join;
                i += 2;
                continue;
            }
            if it.is_ident("while") || it.is_ident("for") {
                let label = pending_label.take();
                let is_for = it.is_ident("for");
                // Condition (or `pat in iter`) up to the body group.
                let mut j = i + 1;
                let mut cond: Vec<&Tt> = Vec::new();
                while j < items.len() && items[j].as_group('{').is_none() {
                    cond.push(&items[j]);
                    j += 1;
                }
                let Some(body) = items.get(j).and_then(|n| n.as_group('{')) else {
                    i = j;
                    continue;
                };
                // `for`: the iterator expression is evaluated once, in
                // `cur`; `while`: the condition re-runs every iteration,
                // in the head block.
                let head = self.new_block(it.line());
                if is_for {
                    let in_pos = cond.iter().position(|t| t.is_ident("in")).unwrap_or(0);
                    cur = self.scan_exprs_ref(&cond[in_pos..], cur);
                    self.edge(cur, head);
                } else {
                    self.edge(cur, head);
                }
                let head_end = if is_for {
                    head
                } else {
                    self.scan_exprs_ref(&cond, head)
                };
                let join = self.new_block(0);
                self.edge(head_end, join);
                let body_entry = self.new_block(body.line);
                self.edge(head_end, body_entry);
                loops.push(LoopCtx { label, break_to: join, continue_to: head });
                let end = self.seq(&body.items, body_entry, loops);
                self.edge(end, head);
                loops.pop();
                cur = join;
                i = j + 1;
                continue;
            }
            if it.is_ident("return") {
                let line = it.line();
                let mut j = i + 1;
                let mut expr: Vec<&Tt> = Vec::new();
                while j < items.len() && !items[j].is_punct(";") {
                    expr.push(&items[j]);
                    j += 1;
                }
                cur = self.scan_exprs_ref(&expr, cur);
                self.blocks[cur].exit = Some((line, "return"));
                cur = self.new_block(0); // unreachable continuation
                i = j + 1;
                continue;
            }
            if it.is_ident("break") || it.is_ident("continue") {
                let is_break = it.is_ident("break");
                let mut j = i + 1;
                let mut label: Option<String> = None;
                if let Some(Tt::Tok(t)) = items.get(j) {
                    if t.kind == TokKind::Lifetime {
                        label = Some(t.text.clone());
                        j += 1;
                    }
                }
                let mut expr: Vec<&Tt> = Vec::new();
                while j < items.len() && !items[j].is_punct(";") {
                    expr.push(&items[j]);
                    j += 1;
                }
                cur = self.scan_exprs_ref(&expr, cur);
                let target = loops
                    .iter()
                    .rev()
                    .find(|c| label.is_none() || c.label == label)
                    .map(|c| if is_break { c.break_to } else { c.continue_to });
                if let Some(t) = target {
                    self.edge(cur, t);
                }
                cur = self.new_block(0);
                i = j + 1;
                continue;
            }
            if it.is_ident("let") {
                // Extract pattern bindings up to `=` (or give up at `;`);
                // the initializer is lowered by this same loop, so
                // control flow inside it keeps its branch structure.
                let mut j = i + 1;
                let mut pat: Vec<&Tt> = Vec::new();
                while j < items.len()
                    && !items[j].is_punct("=")
                    && !items[j].is_punct(";")
                {
                    pat.push(&items[j]);
                    j += 1;
                }
                if items.get(j).is_some_and(|t| t.is_punct("=")) {
                    self.pending_let = pattern_bindings(&pat);
                    i = j + 1;
                } else {
                    self.pending_let.clear();
                    i = j;
                }
                continue;
            }
            // `else` reaching the statement walker is a `let … else`
            // diverging block (if/else chains consume their own `else`).
            if it.is_ident("else") {
                if let Some(body) = items.get(i + 1).and_then(|n| n.as_group('{')) {
                    // An `llx` birth in this statement's initializer only
                    // happens on the *success* path — the else branch runs
                    // precisely when no handle was linked. Move it past
                    // the branch point.
                    let mut moved = Vec::new();
                    while let Some(last) = self.blocks[cur].events.last() {
                        let is_stmt_birth = last.kind == EventKind::Birth
                            && last.method == "llx"
                            && (self.pending_let.contains(&last.keep)
                                || last.keep == UNBOUND_LLX);
                        if !is_stmt_birth {
                            break;
                        }
                        if let Some(e) = self.blocks[cur].events.pop() {
                            moved.push(e);
                        }
                    }
                    let else_entry = self.new_block(body.line);
                    self.edge(cur, else_entry);
                    // The else body must diverge; its terminal block gets
                    // no fallthrough edge.
                    let _dead = self.seq(&body.items, else_entry, loops);
                    let succ = self.new_block(0);
                    self.edge(cur, succ);
                    cur = succ;
                    for e in moved.into_iter().rev() {
                        self.blocks[cur].events.push(e);
                    }
                    i += 2;
                    continue;
                }
                i += 1;
                continue;
            }
            if it.is_punct(";") {
                self.pending_let.clear();
                i += 1;
                continue;
            }
            if it.is_punct("?") {
                let line = it.line();
                self.blocks[cur].exit = Some((line, "?"));
                let nb = self.new_block(0);
                self.edge(cur, nb);
                cur = nb;
                i += 1;
                continue;
            }
            // Statement-level brace group: nested scope (or a struct
            // literal / trailing-closure body — lowering those as a
            // scope is equivalent for event ordering).
            if let Some(g) = it.as_group('{') {
                cur = self.seq(&g.items, cur, loops);
                i += 1;
                continue;
            }
            // Protocol call?
            if let Some(ni) = self.try_call(items, i, &mut cur) {
                i = ni;
                continue;
            }
            // Other group: scan linearly for nested events.
            if let Tt::Group(g) = it {
                cur = self.scan_group(g, cur);
            }
            i += 1;
        }
        cur
    }

    /// `if` / `else if` / `else` chains. Returns (next index, join block).
    fn lower_if(
        &mut self,
        items: &[Tt],
        i: usize,
        cur: usize,
        loops: &mut Vec<LoopCtx>,
    ) -> (usize, usize) {
        // Condition up to the then-block.
        let mut j = i + 1;
        let mut cond: Vec<&Tt> = Vec::new();
        while j < items.len() && items[j].as_group('{').is_none() {
            cond.push(&items[j]);
            j += 1;
        }
        let cur = self.scan_exprs_ref(&cond, cur);
        let after = self.new_block(0);
        let Some(then_g) = items.get(j).and_then(|n| n.as_group('{')) else {
            self.edge(cur, after);
            return (j, after);
        };
        let then_entry = self.new_block(then_g.line);
        self.edge(cur, then_entry);
        let t_end = self.seq(&then_g.items, then_entry, loops);
        self.edge(t_end, after);
        j += 1;
        if items.get(j).is_some_and(|t| t.is_ident("else")) {
            if items.get(j + 1).is_some_and(|t| t.is_ident("if")) {
                let else_entry = self.new_block(items[j + 1].line());
                self.edge(cur, else_entry);
                let (nj, elif_after) = self.lower_if(items, j + 1, else_entry, loops);
                self.edge(elif_after, after);
                return (nj, after);
            }
            if let Some(else_g) = items.get(j + 1).and_then(|n| n.as_group('{')) {
                let else_entry = self.new_block(else_g.line);
                self.edge(cur, else_entry);
                let e_end = self.seq(&else_g.items, else_entry, loops);
                self.edge(e_end, after);
                return (j + 2, after);
            }
        } else {
            self.edge(cur, after);
        }
        (j, after)
    }

    /// `match` lowering: one branch per arm, no head→join fallthrough
    /// (matches are exhaustive). An `llx` in the scrutinee births the
    /// handle bound by each arm's pattern.
    fn lower_match(
        &mut self,
        items: &[Tt],
        i: usize,
        mut cur: usize,
        loops: &mut Vec<LoopCtx>,
    ) -> (usize, usize) {
        let mut j = i + 1;
        let mut scrut: Vec<&Tt> = Vec::new();
        while j < items.len() && items[j].as_group('{').is_none() {
            scrut.push(&items[j]);
            j += 1;
        }
        cur = self.scan_exprs_ref(&scrut, cur);
        // An llx in the scrutinee: retract the unbound birth, rebind per
        // arm below.
        let mut scrut_llx: Option<u32> = None;
        if let Some(pos) = self.blocks[cur]
            .events
            .iter()
            .rposition(|e| e.kind == EventKind::Birth && e.keep == UNBOUND_LLX)
        {
            scrut_llx = Some(self.blocks[cur].events[pos].line);
            self.blocks[cur].events.remove(pos);
        }
        let after = self.new_block(0);
        let Some(arms) = items.get(j).and_then(|n| n.as_group('{')) else {
            self.edge(cur, after);
            return (j, after);
        };
        let mut k = 0usize;
        while k < arms.items.len() {
            // Pattern (and guard) up to `=>`.
            let mut pat: Vec<&Tt> = Vec::new();
            while k < arms.items.len() && !arms.items[k].is_punct("=>") {
                pat.push(&arms.items[k]);
                k += 1;
            }
            if k >= arms.items.len() {
                break;
            }
            k += 1; // past =>
            let arm_entry = self.new_block(arms.items.get(k).map_or(0, Tt::line));
            self.edge(cur, arm_entry);
            if let Some(line) = scrut_llx {
                let binds = pattern_bindings(&pat);
                if binds.len() == 1 {
                    self.uses_llx_family = true;
                    self.blocks[arm_entry].events.push(Event {
                        kind: EventKind::Birth,
                        keep: binds[0].clone(),
                        method: "llx",
                        line,
                    });
                }
            }
            // Guards can call; scan the pattern+guard tokens too.
            let arm_entry = self.scan_exprs_ref(&pat, arm_entry);
            // Arm body: a block, or expression items up to a top-level `,`.
            let a_end = if let Some(body) = arms.items.get(k).and_then(|n| n.as_group('{')) {
                k += 1;
                if arms.items.get(k).is_some_and(|t| t.is_punct(",")) {
                    k += 1;
                }
                self.seq(&body.items, arm_entry, loops)
            } else {
                let start = k;
                while k < arms.items.len() && !arms.items[k].is_punct(",") {
                    k += 1;
                }
                let body: Vec<Tt> = arms.items[start..k].to_vec();
                if arms.items.get(k).is_some_and(|t| t.is_punct(",")) {
                    k += 1;
                }
                self.seq(&body, arm_entry, loops)
            };
            self.edge(a_end, after);
        }
        (j + 1, after)
    }

    /// Scans expression tokens (by reference) for events, honouring `?`
    /// splits and protocol calls; returns the (possibly new) current
    /// block.
    fn scan_exprs_ref(&mut self, items: &[&Tt], cur: usize) -> usize {
        let owned: Vec<Tt> = items.iter().map(|t| (*t).clone()).collect();
        self.scan_exprs(&owned, cur)
    }

    /// Like [`Builder::seq`] but for expression position: no statement
    /// constructs, only calls, groups and `?`.
    fn scan_exprs(&mut self, items: &[Tt], mut cur: usize) -> usize {
        let mut i = 0usize;
        while i < items.len() {
            let it = &items[i];
            if it.is_punct("?") {
                self.blocks[cur].exit = Some((it.line(), "?"));
                let nb = self.new_block(0);
                self.edge(cur, nb);
                cur = nb;
                i += 1;
                continue;
            }
            if let Some(ni) = self.try_call(items, i, &mut cur) {
                i = ni;
                continue;
            }
            if let Tt::Group(g) = it {
                cur = self.scan_group(g, cur);
            }
            i += 1;
        }
        cur
    }

    fn scan_group(&mut self, g: &Group, cur: usize) -> usize {
        self.scan_exprs(&g.items, cur)
    }

    /// If `items[i]` starts a protocol call (`.m(…)` or `Path::m(…)` for
    /// a tracked method `m`), scans its arguments, emits its events, and
    /// returns the index just past the argument group.
    fn try_call(&mut self, items: &[Tt], i: usize, cur: &mut usize) -> Option<usize> {
        let name = items[i].ident_text()?;
        let method = BIRTH_METHODS
            .iter()
            .chain(CONSUME_METHODS)
            .find(|m| **m == name)?;
        let args_g = items.get(i + 1)?.as_group('(')?;
        let prev = i.checked_sub(1).map(|p| &items[p])?;
        let via_path = prev.is_punct("::");
        if !prev.is_punct(".") && !via_path {
            return None;
        }
        // Arguments evaluate first: scan them for nested events.
        *cur = self.scan_exprs(&args_g.items, *cur);
        let args = split_args(&args_g.items);
        // UFCS (`LlScVar::ll(&var, ctx, keep)`) shifts every positional
        // argument by one (the receiver is argument 0).
        let shift = usize::from(via_path);
        let line = items[i].line();
        let receiver = receiver_chain(items, i);
        self.emit_call(method, &args, shift, line, &receiver, cur);
        Some(i + 2)
    }

    #[allow(clippy::too_many_lines)]
    fn emit_call(
        &mut self,
        method: &'static str,
        args: &[Vec<&Tt>],
        shift: usize,
        line: u32,
        receiver: &str,
        cur: &mut usize,
    ) {
        if LLX_FAMILY.contains(&method) {
            self.uses_llx_family = true;
        }
        let arity = args.len().saturating_sub(shift);
        let arg = |idx: usize| args.get(idx + shift).map(Vec::as_slice);
        let push = |b: &mut Builder, kind: EventKind, keep: String| {
            b.blocks[*cur].events.push(Event { kind, keep, method, line });
        };
        match method {
            "ll" => match arity {
                2 => {
                    if let Some(k) = arg(1).and_then(operand_ident) {
                        push(self, EventKind::Birth, k);
                    }
                }
                1 => push(self, EventKind::Birth, format!("@{receiver}")),
                _ => {}
            },
            "wll" => {
                // wll(mem, keep, retval_buf)
                if let Some(k) = (arity == 3).then(|| arg(1).and_then(operand_ident)).flatten() {
                    push(self, EventKind::Birth, k);
                }
            }
            "llx" => {
                // The handle is what the caller binds; `pending_let`
                // carries the binding when this call is a let
                // initializer. `match` scrutinees are rebound per arm by
                // the caller (see lower_match).
                let keep = if self.pending_let.len() == 1 {
                    self.pending_let[0].clone()
                } else {
                    UNBOUND_LLX.to_string()
                };
                push(self, EventKind::Birth, keep);
            }
            "sc" => match arity {
                3 => {
                    if let Some(k) = arg(1).and_then(operand_ident) {
                        push(self, EventKind::Consume, k);
                    }
                }
                4 => {
                    // Figure-6 wide form: sc(mem, p, keep, newval).
                    if let Some(k) = arg(2).and_then(operand_ident) {
                        push(self, EventKind::Consume, k);
                    }
                }
                2 => push(self, EventKind::Consume, format!("@{receiver}")),
                _ => {}
            },
            "vl" => match arity {
                2 => {
                    if let Some(k) = arg(1).and_then(operand_ident) {
                        push(self, EventKind::Consume, k);
                    }
                }
                1 => push(self, EventKind::Consume, format!("@{receiver}")),
                _ => {}
            },
            "cl" => match arity {
                2 => {
                    if let Some(k) = arg(1).and_then(operand_ident) {
                        push(self, EventKind::Consume, k);
                    }
                }
                1 => {
                    // BoundedProc-style `cl(keep)`: the argument is the
                    // keep itself.
                    if let Some(k) = arg(0).and_then(operand_ident) {
                        push(self, EventKind::Consume, k);
                    }
                }
                _ => {}
            },
            "scx" => {
                // scx(ctx, p, [handles…], fin_mask, rec, field, new):
                // every handle in argument 2 is consumed (an array, or a
                // `vec![…]` in older call shapes).
                if let Some(hs) = arg(2) {
                    for k in idents_in(hs) {
                        push(self, EventKind::Consume, k);
                    }
                }
            }
            "vlx" => {
                // vlx(ctx, &[&handles…]).
                if let Some(hs) = arg(1) {
                    for k in idents_in(hs) {
                        push(self, EventKind::Consume, k);
                    }
                }
            }
            "unlink" => {
                if let Some(k) = arg(1).and_then(operand_ident) {
                    push(self, EventKind::Consume, k);
                }
            }
            _ => {}
        }
    }
}

/// Splits a call's argument items at top-level commas.
fn split_args(items: &[Tt]) -> Vec<Vec<&Tt>> {
    let mut out: Vec<Vec<&Tt>> = Vec::new();
    let mut cur: Vec<&Tt> = Vec::new();
    for it in items {
        if it.is_punct(",") {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push(it);
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Extracts the keep identity from an argument: strips `&`/`mut`, then
/// reads an identifier chain (`keep`, `h.keep`, `keeps[i]` → `keeps[]`).
fn operand_ident(items: &[&Tt]) -> Option<String> {
    let mut i = 0usize;
    while i < items.len() && (items[i].is_punct("&") || items[i].is_ident("mut")) {
        i += 1;
    }
    let first = items.get(i)?.ident_text()?;
    if first == "Some" || first == "None" {
        return None;
    }
    let mut out = first.to_string();
    i += 1;
    while i < items.len() {
        if items[i].is_punct(".") {
            match items.get(i + 1) {
                Some(Tt::Tok(t)) if t.kind == TokKind::Ident || t.kind == TokKind::Lit => {
                    // A method call ends the chain (`keep.as_mut()` keeps
                    // its base identity).
                    if items.get(i + 2).is_some_and(|g| g.as_group('(').is_some()) {
                        break;
                    }
                    out.push('.');
                    out.push_str(&t.text);
                    i += 2;
                }
                _ => break,
            }
        } else if items[i].as_group('[').is_some() {
            out.push_str("[]");
            i += 1;
        } else {
            break;
        }
    }
    Some(out)
}

/// Every bare identifier chain inside a token slice (used for `scx`'s
/// `[h1, h2]` and `vlx`'s `&[&h]` handle lists).
fn idents_in(items: &[&Tt]) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(items: &[Tt], out: &mut Vec<String>) {
        let mut i = 0usize;
        while i < items.len() {
            match &items[i] {
                Tt::Tok(t) if t.kind == TokKind::Ident && t.text != "vec" && t.text != "mut" => {
                    let refs: Vec<&Tt> = items[i..].iter().collect();
                    if let Some(k) = operand_ident(&refs) {
                        out.push(k);
                        // Skip the chain we just consumed.
                        i += 1;
                        while i < items.len()
                            && (items[i].is_punct(".")
                                || items[i].as_group('[').is_some()
                                || items[i].ident_text().is_some())
                        {
                            i += 1;
                        }
                        continue;
                    }
                    i += 1;
                }
                Tt::Group(g) => {
                    walk(&g.items, out);
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
    let owned: Vec<Tt> = items.iter().map(|t| (*t).clone()).collect();
    walk(&owned, &mut out);
    out
}

/// The receiver chain of a method call: walks back from the `.` before
/// `items[i]` over `ident`/`.`/`[…]` segments (`self.recs[rec].info.sc(`
/// → `self.recs[].info`).
fn receiver_chain(items: &[Tt], i: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = i.checked_sub(1); // the `.` or `::`
    while let Some(jj) = j.and_then(|x| x.checked_sub(1)) {
        match &items[jj] {
            Tt::Tok(t) if t.kind == TokKind::Ident => {
                parts.push(t.text.clone());
                let Some(prev) = jj.checked_sub(1) else { break };
                if items[prev].is_punct(".") || items[prev].is_punct("::") {
                    j = Some(prev);
                } else {
                    break;
                }
            }
            Tt::Group(g) if g.open == '[' => {
                parts.push("[]".to_string());
                j = Some(jj);
                continue;
            }
            _ => break,
        }
    }
    parts.reverse();
    let mut out = String::new();
    for p in &parts {
        if p == "[]" {
            out.push_str("[]");
        } else {
            if !out.is_empty() && !out.ends_with("[]") {
                out.push('.');
            }
            if out.ends_with("[]") {
                out.push('.');
            }
            out.push_str(p);
        }
    }
    if out.is_empty() {
        "<recv>".to_string()
    } else {
        out
    }
}

/// Binding identifiers in a pattern: identifiers that are not path
/// segments (`Enum::Variant`), not followed by a call/struct group, not
/// type-position tokens, and not keywords.
fn pattern_bindings(pat: &[&Tt]) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(items: &[Tt], out: &mut Vec<String>) {
        let mut i = 0usize;
        let mut after_colon = false;
        while i < items.len() {
            match &items[i] {
                Tt::Tok(t) if t.is_punct(":") => {
                    after_colon = true;
                    i += 1;
                }
                Tt::Tok(t) if t.is_punct(",") => {
                    after_colon = false;
                    i += 1;
                }
                Tt::Tok(t) if t.kind == TokKind::Ident => {
                    let next_path = items.get(i + 1).is_some_and(|n| n.is_punct("::"));
                    let prev_path = i > 0 && items[i - 1].is_punct("::");
                    let next_group = items
                        .get(i + 1)
                        .is_some_and(|n| n.as_group('(').is_some() || n.as_group('{').is_some());
                    let kw = matches!(
                        t.text.as_str(),
                        "mut" | "ref" | "let" | "Some" | "None" | "Ok" | "Err" | "_"
                    );
                    if !after_colon && !next_path && !next_group && !kw && !prev_path {
                        out.push(t.text.clone());
                    }
                    if prev_path && !next_path && !next_group && !after_colon {
                        // `Enum::Variant` bare path — not a binding.
                    }
                    i += 1;
                }
                Tt::Group(g) if !after_colon => {
                    walk(&g.items, out);
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
    let owned: Vec<Tt> = pat.iter().map(|t| (*t).clone()).collect();
    walk(&owned, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Function discovery
// ---------------------------------------------------------------------------

/// Parses every function in `src` (skipping `#[cfg(test)] mod` bodies)
/// and lowers each body to a CFG.
#[must_use]
pub fn parse_functions(src: &str) -> Vec<Function> {
    let toks = lex(src);
    let tree = build_tree(&toks);
    let mut out = Vec::new();
    collect_fns(&tree, &mut out);
    out
}

fn attr_contains_test(g: &Group) -> bool {
    fn has_test(items: &[Tt]) -> bool {
        items.iter().any(|t| match t {
            Tt::Tok(t) => t.is_ident("test"),
            Tt::Group(g) => has_test(&g.items),
        })
    }
    g.items.iter().any(|t| t.is_ident("cfg")) && has_test(&g.items)
}

fn collect_fns(items: &[Tt], out: &mut Vec<Function>) {
    let mut i = 0usize;
    let mut pending_cfg_test = false;
    while i < items.len() {
        let it = &items[i];
        if it.is_punct("#") {
            if let Some(g) = items.get(i + 1).and_then(|n| n.as_group('[')) {
                if attr_contains_test(g) {
                    pending_cfg_test = true;
                }
                i += 2;
                continue;
            }
        }
        if it.is_ident("mod") && pending_cfg_test {
            // Skip the test module's body entirely.
            let mut j = i + 1;
            while j < items.len() && items[j].as_group('{').is_none() && !items[j].is_punct(";") {
                j += 1;
            }
            i = j + 1;
            pending_cfg_test = false;
            continue;
        }
        if it.is_ident("fn") {
            pending_cfg_test = false;
            if let Some((f, ni)) = parse_one_fn(items, i) {
                // Nested functions inside the body get their own entry.
                if let Some(body) = items[..ni].iter().rev().find_map(|t| t.as_group('{')) {
                    collect_fns(&body.items, out);
                }
                out.push(f);
                i = ni;
                continue;
            }
            i += 1;
            continue;
        }
        if let Tt::Group(g) = it {
            // impl blocks, modules, etc.
            collect_fns(&g.items, out);
        }
        pending_cfg_test = false;
        i += 1;
    }
}

fn parse_one_fn(items: &[Tt], i: usize) -> Option<(Function, usize)> {
    let name_tok = items.get(i + 1)?;
    let name = name_tok.ident_text()?.to_string();
    let line = items[i].line();
    // Parameter group: the first paren group at angle-depth 0.
    let mut j = i + 2;
    let mut angle = 0i32;
    let params_g = loop {
        let it = items.get(j)?;
        if it.is_punct("<") {
            angle += 1;
        } else if it.is_punct(">") {
            angle -= 1;
        } else if angle == 0 {
            if let Some(g) = it.as_group('(') {
                break g;
            }
            if it.is_punct(";") || it.as_group('{').is_some() {
                return None;
            }
        }
        j += 1;
    };
    let params: Vec<String> = split_args(&params_g.items)
        .iter()
        .filter_map(|arg| {
            let pat_end = arg
                .iter()
                .position(|t| t.is_punct(":"))
                .unwrap_or(arg.len());
            let binds = pattern_bindings(&arg[..pat_end]);
            binds.into_iter().find(|b| b != "self")
        })
        .collect();
    // Body: first brace group after the params; `;` means a declaration.
    j += 1;
    let body = loop {
        let it = items.get(j)?;
        if it.is_punct(";") {
            return None;
        }
        if let Some(g) = it.as_group('{') {
            break g;
        }
        j += 1;
    };
    let mut b = Builder {
        blocks: Vec::new(),
        uses_llx_family: false,
        pending_let: Vec::new(),
    };
    let entry = b.new_block(body.line);
    let mut loops = Vec::new();
    let end = b.seq(&body.items, entry, &mut loops);
    if b.blocks[end].exit.is_none() {
        b.blocks[end].exit = Some((last_line(&body.items).unwrap_or(body.line), "end"));
    }
    Some((
        Function {
            name,
            line,
            params,
            cfg: Cfg { blocks: b.blocks },
            uses_llx_family: b.uses_llx_family,
            body: body.clone(),
        },
        j + 1,
    ))
}

fn last_line(items: &[Tt]) -> Option<u32> {
    items.last().map(|t| match t {
        Tt::Tok(tok) => tok.line,
        Tt::Group(g) => last_line(&g.items).unwrap_or(g.line),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fn_named<'a>(fns: &'a [Function], name: &str) -> &'a Function {
        fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn simple_ll_sc_events() {
        let fns = parse_functions(
            "fn f(&self, ctx: &mut C) {\n\
                 let mut keep = K::default();\n\
                 let v = self.var.ll(ctx, &mut keep);\n\
                 self.var.sc(ctx, &mut keep, v + 1);\n\
             }\n",
        );
        let f = fn_named(&fns, "f");
        let evs: Vec<_> = f.cfg.blocks.iter().flat_map(|b| &b.events).collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Birth);
        assert_eq!(evs[0].keep, "keep");
        assert_eq!(evs[0].line, 3);
        assert_eq!(evs[1].kind, EventKind::Consume);
        assert_eq!(evs[1].keep, "keep");
    }

    #[test]
    fn wide_sc_four_arg_form() {
        let fns = parse_functions(
            "fn f(&self) {\n\
                 let mut keep = WideKeep::default();\n\
                 let mut buf = [0u64; 2];\n\
                 self.global.wll(&mem, &mut keep, &mut buf);\n\
                 self.global.sc(&mem, ProcId::new(0), &keep, &new);\n\
             }\n",
        );
        let f = fn_named(&fns, "f");
        let evs: Vec<_> = f.cfg.blocks.iter().flat_map(|b| &b.events).collect();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].keep.as_str(), evs[0].kind), ("keep", EventKind::Birth));
        assert_eq!((evs[1].keep.as_str(), evs[1].kind), ("keep", EventKind::Consume));
    }

    #[test]
    fn llx_let_else_and_scx_vec() {
        let fns = parse_functions(
            "fn f(&self, ctx: &mut C) {\n\
                 let LlxOutcome::Linked(hp) = self.d.llx(ctx, par) else {\n\
                     return;\n\
                 };\n\
                 self.d.scx(ctx, p, vec![hp], 0, par, side, v);\n\
             }\n",
        );
        let f = fn_named(&fns, "f");
        assert!(f.uses_llx_family);
        let evs: Vec<_> = f.cfg.blocks.iter().flat_map(|b| &b.events).collect();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].keep.as_str(), evs[0].kind), ("hp", EventKind::Birth));
        assert_eq!((evs[1].keep.as_str(), evs[1].kind), ("hp", EventKind::Consume));
        // The birth must sit on the success path, not before the else
        // branch: the block holding the birth must not be an ancestor of
        // the diverging else body.
        let birth_block = f
            .cfg
            .blocks
            .iter()
            .position(|b| b.events.iter().any(|e| e.kind == EventKind::Birth))
            .unwrap();
        assert!(f.cfg.blocks[birth_block].succs.iter().all(|s| *s != birth_block));
    }

    #[test]
    fn question_mark_splits_block() {
        let fns = parse_functions(
            "fn f(&self, ctx: &mut C) -> Result<(), E> {\n\
                 let mut keep = K::default();\n\
                 self.var.ll(ctx, &mut keep);\n\
                 self.check()?;\n\
                 self.var.sc(ctx, &mut keep, 1);\n\
                 Ok(())\n\
             }\n",
        );
        let f = fn_named(&fns, "f");
        // Some block carries a "?" exit between the birth and the consume.
        let q = f
            .cfg
            .blocks
            .iter()
            .find(|b| b.exit.is_some_and(|(_, k)| k == "?"))
            .expect("? exit block");
        assert!(q.events.iter().any(|e| e.kind == EventKind::Birth));
        assert!(!q.events.iter().any(|e| e.kind == EventKind::Consume));
    }

    #[test]
    fn loop_has_back_edge_and_break_joins() {
        let fns = parse_functions(
            "fn f(&self, ctx: &mut C) -> u64 {\n\
                 let mut keep = K::default();\n\
                 loop {\n\
                     let v = self.var.ll(ctx, &mut keep);\n\
                     if self.var.sc(ctx, &mut keep, v + 1) {\n\
                         break v;\n\
                     }\n\
                 }\n\
             }\n",
        );
        let f = fn_named(&fns, "f");
        // Find the loop head (the block holding the birth).
        let head = f
            .cfg
            .blocks
            .iter()
            .position(|b| b.events.iter().any(|e| e.kind == EventKind::Birth))
            .unwrap();
        // Some block must loop back to the head.
        assert!(f.cfg.blocks.iter().any(|b| b.succs.contains(&head)));
    }

    #[test]
    fn match_scrutinee_llx_binds_per_arm() {
        let fns = parse_functions(
            "fn f(&self, ctx: &mut C) {\n\
                 match self.llx(ctx, rec) {\n\
                     LlxOutcome::Linked(h) => { self.unlink(ctx, h); }\n\
                     LlxOutcome::Finalized => {}\n\
                 }\n\
             }\n",
        );
        let f = fn_named(&fns, "f");
        let births: Vec<_> = f
            .cfg
            .blocks
            .iter()
            .flat_map(|b| &b.events)
            .filter(|e| e.kind == EventKind::Birth)
            .collect();
        assert_eq!(births.len(), 1);
        assert_eq!(births[0].keep, "h");
        let consumes: Vec<_> = f
            .cfg
            .blocks
            .iter()
            .flat_map(|b| &b.events)
            .filter(|e| e.kind == EventKind::Consume)
            .collect();
        assert_eq!(consumes.len(), 1);
        assert_eq!(consumes[0].keep, "h");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let fns = parse_functions(
            "fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() {}\n\
             }\n",
        );
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn params_are_extracted() {
        let fns = parse_functions(
            "fn help(&self, ctx: &mut V::Ctx<'_>, keep: &mut K, p: usize) -> bool { true }\n",
        );
        assert_eq!(fns[0].params, ["ctx", "keep", "p"]);
    }

    #[test]
    fn receiver_implicit_keep() {
        let fns = parse_functions(
            "fn f(&self, p: ProcId) {\n\
                 let v = self.registry.ll(p);\n\
                 self.registry.sc(p, v + 1);\n\
             }\n",
        );
        let f = fn_named(&fns, "f");
        let evs: Vec<_> = f.cfg.blocks.iter().flat_map(|b| &b.events).collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].keep, "@self.registry");
        assert_eq!(evs[1].keep, "@self.registry");
    }
}
