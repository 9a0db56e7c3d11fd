//! The tree-walking interpreter — the test-only reference engine.
//!
//! All observable semantics (member access, DOM effects, method dispatch,
//! coercions, builtins, error strings) live in [`super::runtime`] and are
//! shared with the bytecode VM; this module contributes only the AST walk
//! itself: scope-chain `HashMap`s, statement/expression ticks, and
//! `Flow`-based `return` propagation. The differential harness in
//! [`super::differential`] locks the two engines together through
//! [`run_tree`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use super::ast::{BinOp, Expr, Stmt};
use super::parser::parse_program;
use super::runtime::{self, Builtin, FuncDef, JsError, PageEnv, Value, MAX_CALL_DEPTH, MAX_STEPS};

/// Parses and runs a script on the tree-walker: the reference counterpart
/// of [`super::run_script_with`], with the same signature as the script
/// runner [`super::render::render_by`] takes.
pub(crate) fn run_tree(src: &str, env: &mut PageEnv) -> Result<(), JsError> {
    let prog = parse_program(src).map_err(|e| JsError::Syntax(e.to_string()))?;
    Interpreter::new(env).run(&prog)
}

enum Flow {
    Normal,
    Return(Value),
}

/// The interpreter. Borrows a [`PageEnv`] and mutates its effect sinks.
pub struct Interpreter<'e> {
    env: &'e mut PageEnv,
    scopes: Vec<HashMap<String, Value>>,
    steps: u64,
    max_steps: u64,
    depth: usize,
}

impl<'e> Interpreter<'e> {
    /// Creates an interpreter with the default 200k step budget.
    pub fn new(env: &'e mut PageEnv) -> Self {
        Interpreter {
            env,
            scopes: vec![HashMap::new()],
            steps: 0,
            max_steps: MAX_STEPS,
            depth: 0,
        }
    }

    /// Runs a parsed program to completion.
    pub fn run(&mut self, prog: &[Stmt]) -> Result<(), JsError> {
        match self.exec_block(prog)? {
            Flow::Normal | Flow::Return(_) => Ok(()),
        }
    }

    fn tick(&mut self) -> Result<(), JsError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(JsError::Budget);
        }
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, JsError> {
        for s in stmts {
            if let Flow::Return(v) = self.exec(s)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<Flow, JsError> {
        self.tick()?;
        match stmt {
            Stmt::Empty => Ok(Flow::Normal),
            Stmt::Var(name, init) => {
                let v = match init {
                    Some(e) => self.eval(e)?,
                    None => Value::Undefined,
                };
                self.scopes
                    .last_mut()
                    .expect("scope")
                    .insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then, els) => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then)
                } else {
                    self.exec_block(els)
                }
            }
            Stmt::While(cond, body) => {
                while self.eval(cond)?.truthy() {
                    self.tick()?;
                    if let Flow::Return(v) = self.exec_block(body)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For(init, cond, step, body) => {
                if let Some(init) = init {
                    self.exec(init)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !self.eval(c)?.truthy() {
                            break;
                        }
                    }
                    self.tick()?;
                    if let Flow::Return(v) = self.exec_block(body)? {
                        return Ok(Flow::Return(v));
                    }
                    if let Some(s) = step {
                        self.eval(s)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Function(name, params, body) => {
                let f = Value::Function(Rc::new(FuncDef::tree(params.clone(), body.clone())));
                self.scopes
                    .first_mut()
                    .expect("global scope")
                    .insert(name.clone(), f);
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(v))
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn assign_var(&mut self, name: &str, v: Value) {
        for scope in self.scopes.iter_mut().rev() {
            if scope.contains_key(name) {
                scope.insert(name.to_owned(), v);
                return;
            }
        }
        // Implicit global, as in sloppy-mode JS.
        self.scopes
            .first_mut()
            .expect("global scope")
            .insert(name.to_owned(), v);
    }

    fn rt<T>(&self, msg: impl Into<String>) -> Result<T, JsError> {
        Err(JsError::Runtime(msg.into()))
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, JsError> {
        self.tick()?;
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Ident(name) => {
                if name == "undefined" {
                    return Ok(Value::Undefined);
                }
                if let Some(n) = runtime::ident_native(name) {
                    return Ok(Value::Native(n));
                }
                match self.lookup(name) {
                    Some(v) => Ok(v),
                    None => Ok(Value::Undefined),
                }
            }
            Expr::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item)?);
                }
                Ok(Value::Array(Rc::new(RefCell::new(out))))
            }
            Expr::Member(obj, field) => {
                let base = self.eval(obj)?;
                runtime::get_member(self.env, &base, field)
            }
            Expr::Index(obj, idx) => {
                let base = self.eval(obj)?;
                let i = self.eval(idx)?;
                runtime::index_get(self.env, &base, &i)
            }
            Expr::Un(op, e) => {
                let v = self.eval(e)?;
                Ok(runtime::apply_un(*op, &v))
            }
            Expr::Bin(op, a, b) => self.eval_bin(*op, a, b),
            Expr::Ternary(c, a, b) => {
                if self.eval(c)?.truthy() {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            Expr::Assign(target, value) => {
                let v = self.eval(value)?;
                match &**target {
                    Expr::Ident(name) => {
                        self.assign_var(name, v.clone());
                        Ok(v)
                    }
                    Expr::Member(obj, field) => {
                        let base = self.eval(obj)?;
                        runtime::set_member(self.env, &base, field, v.clone())?;
                        Ok(v)
                    }
                    Expr::Index(obj, idx) => {
                        let base = self.eval(obj)?;
                        let i = self.eval(idx)?;
                        runtime::index_assign(self.env, &base, &i, v.clone())?;
                        Ok(v)
                    }
                    _ => self.rt("invalid assignment target"),
                }
            }
            Expr::Call(callee, args) => self.eval_call(callee, args),
        }
    }

    fn eval_bin(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Value, JsError> {
        // Short-circuit forms first.
        match op {
            BinOp::And => {
                let lhs = self.eval(a)?;
                return if lhs.truthy() { self.eval(b) } else { Ok(lhs) };
            }
            BinOp::Or => {
                let lhs = self.eval(a)?;
                return if lhs.truthy() { Ok(lhs) } else { self.eval(b) };
            }
            _ => {}
        }
        let lhs = self.eval(a)?;
        let rhs = self.eval(b)?;
        Ok(runtime::apply_bin(op, &lhs, &rhs))
    }

    // ---- calls ----

    fn eval_call(&mut self, callee: &Expr, args: &[Expr]) -> Result<Value, JsError> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        match callee {
            Expr::Ident(name) => match Builtin::of(name) {
                Some(Builtin::Eval) => {
                    // Real payloads love eval(obfuscated-string). Re-enter.
                    let src = argv.first().map(Value::to_js_string).unwrap_or_default();
                    let prog =
                        parse_program(&src).map_err(|e| JsError::Runtime(format!("eval: {e}")))?;
                    if self.depth >= MAX_CALL_DEPTH {
                        return self.rt("maximum call depth exceeded");
                    }
                    self.depth += 1;
                    let flow = self.exec_block(&prog);
                    self.depth -= 1;
                    flow?;
                    Ok(Value::Undefined)
                }
                Some(b) => Ok(b.call(&argv)),
                None => match self.lookup(name) {
                    Some(Value::Function(f)) => self.call_function(&f, argv),
                    Some(_) | None => self.rt(format!("{name} is not a function")),
                },
            },
            Expr::Member(obj, method) => {
                let base = self.eval(obj)?;
                runtime::call_method(self.env, &base, method, argv)
            }
            _ => self.rt("uncallable expression"),
        }
    }

    fn call_function(&mut self, f: &Rc<FuncDef>, argv: Vec<Value>) -> Result<Value, JsError> {
        if self.depth >= MAX_CALL_DEPTH {
            return self.rt("maximum call depth exceeded");
        }
        self.depth += 1;
        let mut scope = HashMap::new();
        for (i, p) in f.params.iter().enumerate() {
            scope.insert(p.clone(), argv.get(i).cloned().unwrap_or(Value::Undefined));
        }
        self.scopes.push(scope);
        let flow = self.exec_block(&f.body);
        self.scopes.pop();
        self.depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Undefined),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::run_script;
    use super::*;

    fn run(src: &str) -> PageEnv {
        let mut env =
            PageEnv::browser("http://door.com/page", Some("http://google.com/search?q=x"));
        run_script(src, &mut env).unwrap();
        env
    }

    #[test]
    fn arithmetic_and_vars() {
        let env = run("var a = 2; var b = a * 3 + 1; document.write('' + b);");
        assert_eq!(env.effects.written_html, "7");
    }

    #[test]
    fn string_building_and_write() {
        let env = run("var p = ['<if', 'rame>']; document.write(p.join(''));");
        assert_eq!(env.effects.written_html, "<iframe>");
    }

    #[test]
    fn js_redirect_via_location() {
        let env = run("window.location = 'http://store.com/';");
        assert_eq!(env.effects.redirect.as_deref(), Some("http://store.com/"));
        let env = run("window.location.href = 'http://a.com/';");
        assert_eq!(env.effects.redirect.as_deref(), Some("http://a.com/"));
        let env = run("window.location.replace('http://b.com/');");
        assert_eq!(env.effects.redirect.as_deref(), Some("http://b.com/"));
    }

    #[test]
    fn create_and_attach_iframe() {
        let env = run("var f = document.createElement('iframe');\
             f.setAttribute('width', '100%');\
             f.height = '100%';\
             f.src = 'http://store.com/';\
             document.body.appendChild(f);");
        let attached: Vec<_> = env.effects.attached_elements().collect();
        assert_eq!(attached.len(), 1);
        assert_eq!(attached[0].tag, "iframe");
        assert_eq!(attached[0].attr("width"), Some("100%"));
        assert_eq!(attached[0].attr("height"), Some("100%"));
        assert_eq!(attached[0].attr("src"), Some("http://store.com/"));
    }

    #[test]
    fn detached_elements_are_not_attached() {
        let env = run("var f = document.createElement('iframe'); f.src = 'http://x.com/';");
        assert_eq!(env.effects.attached_elements().count(), 0);
        assert_eq!(env.effects.elements.len(), 1);
    }

    #[test]
    fn referrer_conditional_cloaking() {
        let src = "if (document.referrer.indexOf('google') >= 0) { window.location = 'http://store.com/'; }";
        let env = run(src);
        assert!(env.effects.redirect.is_some());

        let mut env2 = PageEnv::browser("http://door.com/page", None);
        run_script(src, &mut env2).unwrap();
        assert!(env2.effects.redirect.is_none());
    }

    #[test]
    fn user_agent_branching() {
        let src = "if (navigator.userAgent.indexOf('Googlebot') < 0) document.write('user');";
        let env = run(src);
        assert_eq!(env.effects.written_html, "user");
        let mut bot = PageEnv {
            user_agent: crate::http::UserAgent::GoogleBot.header_value().into(),
            ..PageEnv::default()
        };
        run_script(src, &mut bot).unwrap();
        assert_eq!(bot.effects.written_html, "");
    }

    #[test]
    fn from_char_code_obfuscation() {
        let env = run("var cs = [104, 116, 116, 112];\
             var out = String.fromCharCode(cs[0], cs[1], cs[2], cs[3]);\
             document.write(out);");
        assert_eq!(env.effects.written_html, "http");
    }

    #[test]
    fn eval_reentry() {
        let env = run(r#"eval("document.write('ok');");"#);
        assert_eq!(env.effects.written_html, "ok");
    }

    #[test]
    fn loops_and_functions() {
        let env = run(
            "function rep(s, n) { var out = ''; for (var i = 0; i < n; i++) { out = out + s; } return out; }\
             document.write(rep('ab', 3));",
        );
        assert_eq!(env.effects.written_html, "ababab");
    }

    #[test]
    fn while_loop_and_compound_assign() {
        let env = run("var n = 0; while (n < 5) { n += 2; } document.write('' + n);");
        assert_eq!(env.effects.written_html, "6");
    }

    #[test]
    fn runaway_loop_hits_budget() {
        let mut env = PageEnv::default();
        let err = run_script("while (true) { var x = 1; }", &mut env).unwrap_err();
        assert_eq!(err, JsError::Budget);
    }

    #[test]
    fn runaway_recursion_hits_depth_cap() {
        // Rust-level recursion backs JS calls in both engines; without the
        // depth cap this would overflow the native stack, not error.
        let mut env = PageEnv::default();
        let err = run_script("function f() { return f(); } f();", &mut env).unwrap_err();
        assert_eq!(err, JsError::Runtime("maximum call depth exceeded".into()));
    }

    #[test]
    fn string_methods() {
        let env = run("var s = 'HeLLo world';\
             document.write(s.toLowerCase().replace('world', 'there').substring(0, 8));");
        assert_eq!(env.effects.written_html, "hello th");
    }

    #[test]
    fn unescape_decodes() {
        let env = run("document.write(unescape('%68%74%74%70'));");
        assert_eq!(env.effects.written_html, "http");
    }

    #[test]
    fn get_element_by_id_honours_static_dom() {
        let mut env = PageEnv {
            dom_ids: vec!["content".into()],
            ..PageEnv::default()
        };
        run_script(
            "var c = document.getElementById('content');\
             if (c != null) { var f = document.createElement('iframe'); c.appendChild(f); }",
            &mut env,
        )
        .unwrap();
        // iframe attached through the static container.
        assert!(env
            .effects
            .elements
            .iter()
            .any(|e| e.tag == "iframe" && e.attached));

        let mut env2 = PageEnv::default();
        run_script(
            "var c = document.getElementById('content'); document.write(c == null ? 'no' : 'yes');",
            &mut env2,
        )
        .unwrap();
        assert_eq!(env2.effects.written_html, "no");
    }

    #[test]
    fn ternary_and_equality() {
        let env = run("document.write(1 == '1' ? 'loose' : 'strict');");
        assert_eq!(env.effects.written_html, "loose");
    }

    #[test]
    fn runtime_errors_are_reported() {
        let mut env = PageEnv::default();
        assert!(matches!(
            run_script("nosuchfn();", &mut env),
            Err(JsError::Runtime(_))
        ));
        assert!(matches!(
            run_script("var x = ;", &mut env),
            Err(JsError::Syntax(_))
        ));
    }
}
