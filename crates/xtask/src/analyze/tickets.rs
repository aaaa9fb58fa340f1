//! I/O-ticket obligation checking: linear-resource tracking for async
//! submissions.
//!
//! The async core hands out obligations: an `IoHandle::submit` buffers a
//! completion that must be reaped (`reap_all`/`complete_all`), and a
//! `seal_detach`/`submit_flush` produces `FlushTicket`s that must be
//! resolved (`resolve_ticket`/`wait_done`). Dropping one on the floor is
//! the debris/quarantine class of bug PR 7 fixed by hand: device state
//! already mutated, but nobody ever observes the completion — or the
//! error it carried.
//!
//! The analysis walks each function linearly. A *producer* statement
//! opens an obligation keyed by the receiver (for `.submit(…)`) or the
//! `let` binding (for `seal_detach`/`submit_flush` results). The
//! obligation closes when a later statement mentions that variable —
//! ownership has moved: it was reaped, resolved, returned, or explicitly
//! aborted. Two findings:
//!
//! * **ticket-leak-on-exit** — a statement with an early-exit edge (`?`,
//!   `return`, `break`, `continue`, anywhere in its sub-blocks) runs
//!   while an obligation is open and does not mention the obligated
//!   variable: if that exit is taken, the ticket leaks. This is the case
//!   the old regex `submit-to-complete` rule provably missed — it only
//!   ever looked at single lines. Statements where the structure
//!   guarantees safety (e.g. "no job ⇒ no tickets") carry
//!   `// ticket-ok: why`.
//! * **ticket-never-resolved** — the function ends with the obligation
//!   still open and the variable never mentioned again.

use super::model::{build, stmts, Stmt};
use super::parse::{SourceFile, Tok};
use super::{push, Violation};

/// Method calls that open an obligation on their receiver.
const PRODUCER_METHODS: &[&str] = &["submit"];

/// Calls whose `let`-bound result is an obligation.
const PRODUCER_FNS: &[&str] = &["seal_detach", "submit_flush"];

/// Consumer idents: a producer statement that also contains one of these
/// is self-contained (submit-and-reap loops) and opens nothing.
const CONSUMERS: &[&str] = &[
    "reap_all",
    "complete_all",
    "resolve_ticket",
    "wait_done",
    "complete",
    "abort",
];

struct Obligation {
    var: String,
    line: u32,
    what: &'static str,
}

/// Runs the analysis over one file.
pub fn analyze(file: &str, sf: &SourceFile, out: &mut Vec<Violation>) {
    if !file.contains("/src/") {
        return;
    }
    let m = build(sf);
    for func in &m.fns {
        if func.is_test {
            continue;
        }
        let Some(body) = func.body else { continue };
        let open = walk(&stmts(body), sf, file, out);
        for o in open {
            push(
                out,
                "ticket-never-resolved",
                file,
                o.line,
                format!(
                    "the {} obligation `{}` is never resolved, reaped, aborted, or \
                     returned on any path out of `{}`",
                    o.what, o.var, func.name
                ),
            );
        }
    }
}

/// Walks one block scope linearly; obligations still open at block end
/// escape to the parent scope (the value it is stored in, or the
/// receiver field, may be reaped further down the enclosing function).
fn walk(
    units: &[Stmt<'_>],
    sf: &SourceFile,
    file: &str,
    out: &mut Vec<Violation>,
) -> Vec<Obligation> {
    let mut open: Vec<Obligation> = Vec::new();
    for st in units {
        // Close: any mention of the obligated variable (anywhere in the
        // statement, sub-blocks included) moves it.
        open.retain(|o| !mentions_rec(st, &o.var));

        // Leak check: an exit edge while obligations are open.
        if !open.is_empty()
            && has_exit_rec(st)
            && !sf.annotated(st.first_line, 4, "ticket-ok:")
        {
            for o in &open {
                push(
                    out,
                    "ticket-leak-on-exit",
                    file,
                    st.first_line,
                    format!(
                        "early exit while the {} obligation `{}` (opened at line \
                         {}) is unresolved; resolve, reap, or abort it on this \
                         path, or annotate `// ticket-ok: why`",
                        o.what, o.var, o.line
                    ),
                );
            }
        }

        // Sub-blocks are scopes of their own (loop bodies, if arms);
        // whatever they leave unresolved becomes this scope's problem.
        for b in &st.blocks {
            open.extend(walk(&stmts(b), sf, file, out));
        }

        // Open new obligations — unless the statement also consumes at
        // leaf level (submit-and-reap chained in one expression).
        if contains_consumer_leaf(st) {
            continue;
        }
        for (var, line, what) in producers(st) {
            open.retain(|o| o.var != var);
            open.push(Obligation { var, line, what });
        }
    }
    open
}

/// Producer sites at this statement's leaf level (sub-blocks are handled
/// by the recursive scope walk): the receiver var of a `.submit(…)` call,
/// or the `let` binding of a `seal_detach`/`submit_flush` result.
fn producers(st: &Stmt<'_>) -> Vec<(String, u32, &'static str)> {
    let mut out = Vec::new();
    let leaves = st.leaves();
    for (i, t) in leaves.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if !PRODUCER_METHODS.contains(&id.as_str()) {
            continue;
        }
        // `<recv>.submit` — key on the ident right before the dot.
        if i >= 2 && leaves[i - 1].tok == Tok::Punct('.') {
            if let Tok::Ident(recv) = &leaves[i - 2].tok {
                out.push((recv.clone(), t.line, "submission"));
            }
        }
    }
    // Binding-keyed: `let (job, tickets) = self.seal_detach(…)`.
    let produced_fn = leaves.iter().enumerate().any(|(i, t)| {
        matches!(&t.tok, Tok::Ident(id) if PRODUCER_FNS.contains(&id.as_str()))
            && leaves
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.tok == Tok::Punct('.'))
    });
    if produced_fn {
        let binds = st.let_bindings();
        let ticket_binds: Vec<&String> =
            binds.iter().filter(|b| b.contains("ticket")).collect();
        if let Some(b) = ticket_binds.first() {
            out.push(((*b).clone(), st.first_line, "flush-ticket"));
        } else if binds.len() == 1 {
            out.push((binds[0].clone(), st.first_line, "flush-ticket"));
        }
    }
    out
}

/// Whether the statement (or its sub-blocks) mention `name`.
fn mentions_rec(st: &Stmt<'_>, name: &str) -> bool {
    if st.mentions(name) {
        return true;
    }
    st.blocks
        .iter()
        .any(|b| stmts(b).iter().any(|sub| mentions_rec(sub, name)))
}

/// Whether the statement (or its sub-blocks) contain an early-exit edge.
fn has_exit_rec(st: &Stmt<'_>) -> bool {
    if st.has_early_exit() {
        return true;
    }
    st.blocks
        .iter()
        .any(|b| stmts(b).iter().any(|sub| has_exit_rec(sub)))
}

fn contains_consumer_leaf(st: &Stmt<'_>) -> bool {
    st.leaves()
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(id) if CONSUMERS.contains(&id.as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::parse::parse;

    fn run(file: &str, src: &str) -> Vec<Violation> {
        let sf = parse(src).unwrap();
        let mut out = Vec::new();
        analyze(file, &sf, &mut out);
        out
    }

    #[test]
    fn early_exit_between_submit_and_reap_leaks() {
        // The case the old single-line regex provably missed: the submit
        // and the `?` exit are statements apart.
        let src = "impl Fs {\n    fn flush(&mut self) -> Result<(), E> {\n        \
                   let id = self.io.submit(now, op);\n        \
                   self.write_meta()?;\n        \
                   self.io.complete_all(now)?;\n        Ok(())\n    }\n}\n";
        let v = run("crates/f2fs-lite/src/fs.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ticket-leak-on-exit");
        assert_eq!(v[0].line, 4);
        assert!(v[0].msg.contains("`io`"));
    }

    #[test]
    fn straight_line_submit_then_reap_is_clean() {
        let src = "impl Fs {\n    fn flush(&mut self) -> Result<(), E> {\n        \
                   let id = self.io.submit(now, op);\n        \
                   self.io.complete_all(now)?;\n        Ok(())\n    }\n}\n";
        let v = run("crates/f2fs-lite/src/fs.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn submission_never_reaped_is_flagged_at_fn_end() {
        let src = "impl Fs {\n    fn fire_and_forget(&mut self) {\n        \
                   let id = self.io.submit(now, op);\n        \
                   self.counter += 1;\n    }\n}\n";
        let v = run("crates/f2fs-lite/src/fs.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ticket-never-resolved");
        assert!(v[0].msg.contains("fire_and_forget"));
    }

    #[test]
    fn returning_the_handle_transfers_the_obligation() {
        let src = "impl Fs {\n    fn start(&mut self) -> IoHandle {\n        \
                   let mut io = self.pool.handle();\n        \
                   io.submit(now, op);\n        io\n    }\n}\n";
        let v = run("crates/f2fs-lite/src/fs.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn exit_hidden_inside_a_sub_block_is_still_an_exit() {
        // `let … else { continue }` / `if x { return }` style exits are
        // invisible to leaf-level scans; the recursive walk sees them.
        let src = "impl Engine {\n    fn roll(&self) -> Result<u64, E> {\n        \
                   let (job, tickets) = self.seal_detach(&mut w);\n        \
                   if job.is_none() {\n            return Err(E::NoJob);\n        }\n        \
                   for t in tickets {\n            self.resolve_ticket(t, now);\n        }\n        \
                   Ok(0)\n    }\n}\n";
        let v = run("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ticket-leak-on-exit");
        assert!(v[0].msg.contains("`tickets`"), "{v:?}");
    }

    #[test]
    fn ticket_ok_annotation_waives_a_structurally_safe_exit() {
        let src = "impl Engine {\n    fn roll(&self) -> Result<u64, E> {\n        \
                   let (job, tickets) = self.seal_detach(&mut w);\n        \
                   // ticket-ok: seal_detach returns no tickets without a job.\n        \
                   if job.is_none() {\n            return Err(E::NoJob);\n        }\n        \
                   for t in tickets {\n            self.resolve_ticket(t, now);\n        }\n        \
                   Ok(0)\n    }\n}\n";
        let v = run("crates/core/src/engine.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn submit_and_reap_in_one_loop_statement_is_self_contained() {
        let src = "impl Fs {\n    fn pump(&mut self) -> Result<(), E> {\n        \
                   while self.more() {\n            \
                   self.io.submit(now, op);\n            \
                   self.io.reap_all();\n        }\n        \
                   self.sync()?;\n        Ok(())\n    }\n}\n";
        let v = run("crates/f2fs-lite/src/fs.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   let id = io.submit(now, op);\n    }\n}\n";
        let v = run("crates/sim/src/aio.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }
}
