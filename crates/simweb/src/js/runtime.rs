//! The shared runtime layer: the value model, the page (DOM) environment,
//! and every semantic primitive both engines use.
//!
//! The bytecode VM ([`super::vm`]) and the test-only tree-walking
//! reference interpreter differ only in control flow, name resolution,
//! and step accounting. Everything observable — member access, DOM
//! mutation, method dispatch, coercion, builtin functions, error strings —
//! lives here as free functions over [`PageEnv`], so the two engines agree
//! on these semantics by construction and the differential harness only
//! has to lock the execution machinery.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

#[cfg(test)]
use super::ast::Stmt;
use super::ast::{BinOp, UnOp};
use super::bytecode::Chunk;

/// Step budget shared by both engines: one step per statement, per
/// expression node, and per loop iteration.
pub(crate) const MAX_STEPS: u64 = 200_000;

/// Maximum JS call depth (function calls plus `eval` re-entries). Both
/// engines execute calls by Rust-level recursion, so without a cap a
/// self-recursive script overflows the native stack long before the step
/// budget trips; with it, runaway recursion is an ordinary [`JsError`].
/// The bound is deliberately small: it must hold comfortably within a
/// default 2 MiB thread stack even for unoptimized builds (each JS call is
/// a dozen-plus Rust frames), and no real cloaking payload recurses at all.
pub(crate) const MAX_CALL_DEPTH: usize = 32;

/// A runtime error. The crawler treats any [`JsError`] as "script did
/// nothing observable" — real crawlers must survive hostile pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsError {
    /// The source failed to lex/parse.
    Syntax(String),
    /// A runtime failure (bad member, not callable, …).
    Runtime(String),
    /// The step budget was exhausted (runaway loop).
    Budget,
}

impl fmt::Display for JsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsError::Syntax(m) => write!(f, "syntax error: {m}"),
            JsError::Runtime(m) => write!(f, "runtime error: {m}"),
            JsError::Budget => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for JsError {}

pub(crate) fn rt<T>(msg: impl Into<String>) -> Result<T, JsError> {
    Err(JsError::Runtime(msg.into()))
}

/// A dynamically created element (via `document.createElement`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynElement {
    /// Tag name.
    pub tag: String,
    /// Attributes set via `setAttribute` or property assignment.
    pub attrs: Vec<(String, String)>,
    /// Whether the element was appended into the document.
    pub attached: bool,
    /// `innerHTML`, if assigned.
    pub inner_html: String,
}

impl DynElement {
    /// First value of attribute `name`.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn set_attr(&mut self, name: &str, value: String) {
        let name = name.to_ascii_lowercase();
        match self.attrs.iter_mut().find(|(k, _)| *k == name) {
            Some(slot) => slot.1 = value,
            None => self.attrs.push((name, value)),
        }
    }
}

/// Observable side effects of running a page's scripts — what the VanGogh
/// renderer inspects after execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RenderEffects {
    /// `window.location` navigation target, if any (a JS redirect).
    pub redirect: Option<String>,
    /// Concatenated `document.write` output (HTML, parsed by the renderer).
    pub written_html: String,
    /// Elements created at runtime; includes detached ones.
    pub elements: Vec<DynElement>,
}

impl RenderEffects {
    /// Dynamically created elements that were actually attached.
    pub fn attached_elements(&self) -> impl Iterator<Item = &DynElement> {
        self.elements.iter().filter(|e| e.attached)
    }
}

/// The page environment scripts run against: the inputs cloaking payloads
/// branch on, and the effect sinks they write to.
#[derive(Debug, Clone, Default)]
pub struct PageEnv {
    /// `navigator.userAgent`.
    pub user_agent: String,
    /// `document.referrer` ("" when absent, as in browsers).
    pub referrer: String,
    /// `document.title`.
    pub title: String,
    /// `window.location.href` of the page itself.
    pub location_href: String,
    /// Ids present in the static DOM (for `getElementById` hits).
    pub dom_ids: Vec<String>,
    /// Accumulated effects.
    pub effects: RenderEffects,
}

impl PageEnv {
    /// Environment for a browser visit.
    pub fn browser(url: &str, referrer: Option<&str>) -> Self {
        PageEnv {
            user_agent: crate::http::UserAgent::Browser.header_value().to_owned(),
            referrer: referrer.unwrap_or("").to_owned(),
            location_href: url.to_owned(),
            ..PageEnv::default()
        }
    }
}

/// Runtime values.
#[derive(Debug, Clone)]
pub enum Value {
    /// `undefined`.
    Undefined,
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Number (f64, like JS).
    Num(f64),
    /// String.
    Str(String),
    /// Array (shared, mutable — JS reference semantics).
    Array(Rc<RefCell<Vec<Value>>>),
    /// Handle to a dynamically created element (index into effects).
    Element(usize),
    /// Handle to a native singleton: "document", "window", "location",
    /// "navigator", "Math", "String", "body".
    Native(&'static str),
    /// A user-defined function.
    Function(Rc<FuncDef>),
}

/// A user-defined function definition. VM-created functions reference a
/// compiled proto inside a shared [`Chunk`]; in test builds the reference
/// tree-walker's functions carry their AST body instead. Both flow through
/// [`Value::Function`] so coercions (`truthy`, `to_js_string`, loose
/// equality) agree between engines.
#[derive(Debug)]
pub struct FuncDef {
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements (empty for VM-compiled functions).
    #[cfg(test)]
    pub(crate) body: Vec<Stmt>,
    /// Compiled form: `(chunk, proto index)`, set by the VM only.
    pub(crate) compiled: Option<(Arc<Chunk>, usize)>,
}

impl FuncDef {
    /// A tree-walker function (AST body).
    #[cfg(test)]
    pub(crate) fn tree(params: Vec<String>, body: Vec<Stmt>) -> Self {
        FuncDef {
            params,
            body,
            compiled: None,
        }
    }

    /// A VM function referencing a compiled proto.
    pub(crate) fn vm(params: Vec<String>, chunk: Arc<Chunk>, proto: usize) -> Self {
        FuncDef {
            params,
            #[cfg(test)]
            body: Vec::new(),
            compiled: Some((chunk, proto)),
        }
    }
}

impl Value {
    /// JS-style truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Array(_) | Value::Element(_) | Value::Native(_) | Value::Function(_) => true,
        }
    }

    /// JS-style string coercion.
    pub fn to_js_string(&self) -> String {
        match self {
            Value::Undefined => "undefined".into(),
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Value::Str(s) => s.clone(),
            Value::Array(items) => items
                .borrow()
                .iter()
                .map(Value::to_js_string)
                .collect::<Vec<_>>()
                .join(","),
            Value::Element(_) => "[object HTMLElement]".into(),
            Value::Native(n) => format!("[object {n}]"),
            Value::Function(_) => "function".into(),
        }
    }

    /// JS-style numeric coercion (NaN on failure).
    pub fn to_num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            Value::Bool(true) => 1.0,
            Value::Bool(false) | Value::Null => 0.0,
            Value::Str(s) => s.trim().parse().unwrap_or(f64::NAN),
            _ => f64::NAN,
        }
    }
}

/// The names that resolve to a [`Value::Native`] in identifier position —
/// checked *before* scope lookup, so `var document = 5; document` still
/// yields the native (exactly the treewalker's historical behavior).
pub(crate) fn ident_native(name: &str) -> Option<&'static str> {
    match name {
        "document" => Some("document"),
        "window" => Some("window"),
        "navigator" => Some("navigator"),
        "Math" => Some("Math"),
        "String" => Some("String"),
        "screen" => Some("screen"),
        _ => None,
    }
}

/// Free builtin functions intercepted by name in call position, before any
/// scope lookup (so a shadowing `var parseInt = …` cannot replace them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    /// `parseInt(s)`.
    ParseInt,
    /// `unescape(s)` / `decodeURIComponent(s)`.
    Unescape,
    /// `eval(src)` — handled by each engine (it re-enters execution).
    Eval,
    /// `alert(..)` / `setTimeout(..)` — accepted, ignored.
    Noop,
}

impl Builtin {
    pub(crate) fn of(name: &str) -> Option<Builtin> {
        match name {
            "parseInt" => Some(Builtin::ParseInt),
            "unescape" | "decodeURIComponent" => Some(Builtin::Unescape),
            "eval" => Some(Builtin::Eval),
            "alert" | "setTimeout" => Some(Builtin::Noop),
            _ => None,
        }
    }

    /// Evaluates a non-`eval` builtin (these never touch the environment).
    pub(crate) fn call(self, argv: &[Value]) -> Value {
        match self {
            Builtin::ParseInt => {
                let s = argv.first().map(Value::to_js_string).unwrap_or_default();
                let digits: String = s
                    .trim()
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '-')
                    .collect();
                digits
                    .parse::<f64>()
                    .map(Value::Num)
                    .unwrap_or(Value::Num(f64::NAN))
            }
            Builtin::Unescape => {
                let s = argv.first().map(Value::to_js_string).unwrap_or_default();
                Value::Str(percent_decode(&s))
            }
            Builtin::Noop => Value::Undefined,
            Builtin::Eval => unreachable!("eval is engine-specific"),
        }
    }
}

/// Applies a unary operator.
pub(crate) fn apply_un(op: UnOp, v: &Value) -> Value {
    match op {
        UnOp::Not => Value::Bool(!v.truthy()),
        UnOp::Neg => Value::Num(-v.to_num()),
    }
}

/// Applies a non-short-circuit binary operator (`&&`/`||` are control
/// flow, handled by each engine). Never errors.
pub(crate) fn apply_bin(op: BinOp, lhs: &Value, rhs: &Value) -> Value {
    match op {
        BinOp::Add => match (lhs, rhs) {
            (Value::Str(_), _) | (_, Value::Str(_)) => {
                Value::Str(format!("{}{}", lhs.to_js_string(), rhs.to_js_string()))
            }
            _ => Value::Num(lhs.to_num() + rhs.to_num()),
        },
        BinOp::Sub => Value::Num(lhs.to_num() - rhs.to_num()),
        BinOp::Mul => Value::Num(lhs.to_num() * rhs.to_num()),
        BinOp::Div => Value::Num(lhs.to_num() / rhs.to_num()),
        BinOp::Rem => Value::Num(lhs.to_num() % rhs.to_num()),
        BinOp::Eq => Value::Bool(loose_eq(lhs, rhs)),
        BinOp::Ne => Value::Bool(!loose_eq(lhs, rhs)),
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
            let cmp = match (lhs, rhs) {
                (Value::Str(x), Value::Str(y)) => x.partial_cmp(y),
                _ => lhs.to_num().partial_cmp(&rhs.to_num()),
            };
            match cmp {
                None => Value::Bool(false),
                Some(ord) => Value::Bool(match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Le => ord.is_le(),
                    _ => ord.is_ge(),
                }),
            }
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops are control flow"),
    }
}

/// `base[i]` in read position. Never errors.
pub(crate) fn index_get(env: &mut PageEnv, base: &Value, i: &Value) -> Result<Value, JsError> {
    match (base, i) {
        (Value::Array(items), Value::Num(n)) => {
            let items = items.borrow();
            Ok(items.get(*n as usize).cloned().unwrap_or(Value::Undefined))
        }
        (Value::Str(s), Value::Num(n)) => Ok(s
            .chars()
            .nth(*n as usize)
            .map(|c| Value::Str(c.to_string()))
            .unwrap_or(Value::Undefined)),
        (base, Value::Str(field)) => get_member(env, base, field),
        _ => Ok(Value::Undefined),
    }
}

/// `base[i] = v`. Arrays grow with `undefined` holes, string keys fall
/// through to member assignment, anything else is a runtime error.
pub(crate) fn index_assign(
    env: &mut PageEnv,
    base: &Value,
    i: &Value,
    v: Value,
) -> Result<(), JsError> {
    match (base, i) {
        (Value::Array(items), Value::Num(n)) => {
            let mut items = items.borrow_mut();
            let ix = *n as usize;
            if ix >= items.len() {
                items.resize(ix + 1, Value::Undefined);
            }
            items[ix] = v;
            Ok(())
        }
        (base, Value::Str(field)) => set_member(env, base, field, v),
        _ => rt("invalid index assignment"),
    }
}

// ---- member access on natives, elements, strings, arrays ----

/// `base.field` in read position. Never errors.
pub(crate) fn get_member(env: &mut PageEnv, base: &Value, field: &str) -> Result<Value, JsError> {
    match base {
        Value::Native("document") => match field {
            "referrer" => Ok(Value::Str(env.referrer.clone())),
            "title" => Ok(Value::Str(env.title.clone())),
            "location" => Ok(Value::Native("location")),
            "body" => Ok(Value::Native("body")),
            _ => Ok(Value::Undefined),
        },
        Value::Native("window") => match field {
            "location" => Ok(Value::Native("location")),
            "document" => Ok(Value::Native("document")),
            "navigator" => Ok(Value::Native("navigator")),
            "innerWidth" => Ok(Value::Num(1280.0)),
            "innerHeight" => Ok(Value::Num(800.0)),
            _ => Ok(Value::Undefined),
        },
        Value::Native("navigator") => match field {
            "userAgent" => Ok(Value::Str(env.user_agent.clone())),
            _ => Ok(Value::Undefined),
        },
        Value::Native("screen") => match field {
            "width" => Ok(Value::Num(1280.0)),
            "height" => Ok(Value::Num(800.0)),
            _ => Ok(Value::Undefined),
        },
        Value::Native("location") => match field {
            "href" => Ok(Value::Str(env.location_href.clone())),
            _ => Ok(Value::Undefined),
        },
        Value::Str(s) => match field {
            "length" => Ok(Value::Num(s.chars().count() as f64)),
            _ => Ok(Value::Undefined),
        },
        Value::Array(items) => match field {
            "length" => Ok(Value::Num(items.borrow().len() as f64)),
            _ => Ok(Value::Undefined),
        },
        Value::Element(h) => {
            let el = &env.effects.elements[*h];
            match field {
                "tagName" => Ok(Value::Str(el.tag.to_ascii_uppercase())),
                "innerHTML" => Ok(Value::Str(el.inner_html.clone())),
                other => Ok(el
                    .attr(other)
                    .map(|v| Value::Str(v.to_owned()))
                    .unwrap_or(Value::Undefined)),
            }
        }
        _ => Ok(Value::Undefined),
    }
}

/// `base.field = v`. Redirect/title/element sinks; silently ignored
/// elsewhere, like sloppy JS on frozen hosts.
pub(crate) fn set_member(
    env: &mut PageEnv,
    base: &Value,
    field: &str,
    v: Value,
) -> Result<(), JsError> {
    match base {
        // window.location = url; document.location = url
        Value::Native("window") | Value::Native("document") if field == "location" => {
            env.effects.redirect = Some(v.to_js_string());
            Ok(())
        }
        // window.location.href = url
        Value::Native("location") if field == "href" => {
            env.effects.redirect = Some(v.to_js_string());
            Ok(())
        }
        Value::Native("document") if field == "title" => {
            env.title = v.to_js_string();
            Ok(())
        }
        Value::Element(h) => {
            let el = &mut env.effects.elements[*h];
            if field == "innerHTML" {
                el.inner_html = v.to_js_string();
            } else {
                el.set_attr(field, v.to_js_string());
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// `base.method(argv…)` dispatch for every native object, element handle,
/// string, and array method both engines support.
pub(crate) fn call_method(
    env: &mut PageEnv,
    base: &Value,
    method: &str,
    argv: Vec<Value>,
) -> Result<Value, JsError> {
    let arg_str = |i: usize| argv.get(i).map(Value::to_js_string).unwrap_or_default();
    match base {
        Value::Native("document") => match method {
            "write" | "writeln" => {
                for a in &argv {
                    env.effects.written_html.push_str(&a.to_js_string());
                }
                Ok(Value::Undefined)
            }
            "createElement" => {
                let tag = arg_str(0).to_ascii_lowercase();
                env.effects.elements.push(DynElement {
                    tag,
                    ..DynElement::default()
                });
                Ok(Value::Element(env.effects.elements.len() - 1))
            }
            "getElementById" => {
                let id = arg_str(0);
                if env.dom_ids.contains(&id) {
                    // Materialize a handle standing in for the static
                    // element; appends to it attach to the document.
                    env.effects.elements.push(DynElement {
                        tag: "div".into(),
                        attrs: vec![("id".into(), id)],
                        attached: true,
                        inner_html: String::new(),
                    });
                    Ok(Value::Element(env.effects.elements.len() - 1))
                } else {
                    Ok(Value::Null)
                }
            }
            _ => rt(format!("document.{method} is not a function")),
        },
        Value::Native("location") => match method {
            "replace" | "assign" => {
                env.effects.redirect = Some(arg_str(0));
                Ok(Value::Undefined)
            }
            _ => rt(format!("location.{method} is not a function")),
        },
        Value::Native("body") => match method {
            "appendChild" | "insertBefore" => {
                if let Some(Value::Element(h)) = argv.first() {
                    env.effects.elements[*h].attached = true;
                }
                Ok(argv.into_iter().next().unwrap_or(Value::Undefined))
            }
            _ => rt(format!("body.{method} is not a function")),
        },
        Value::Native("String") => match method {
            "fromCharCode" => {
                let s: String = argv
                    .iter()
                    .map(|v| char::from_u32(v.to_num() as u32).unwrap_or('\u{fffd}'))
                    .collect();
                Ok(Value::Str(s))
            }
            _ => rt(format!("String.{method} is not a function")),
        },
        Value::Native("Math") => {
            let x = argv.first().map(Value::to_num).unwrap_or(f64::NAN);
            match method {
                "floor" => Ok(Value::Num(x.floor())),
                "ceil" => Ok(Value::Num(x.ceil())),
                "abs" => Ok(Value::Num(x.abs())),
                "round" => Ok(Value::Num(x.round())),
                "max" => Ok(Value::Num(
                    argv.iter()
                        .map(Value::to_num)
                        .fold(f64::NEG_INFINITY, f64::max),
                )),
                "min" => Ok(Value::Num(
                    argv.iter().map(Value::to_num).fold(f64::INFINITY, f64::min),
                )),
                _ => rt(format!("Math.{method} is not a function")),
            }
        }
        Value::Element(h) => {
            let h = *h;
            match method {
                "setAttribute" => {
                    let (name, value) = (arg_str(0), arg_str(1));
                    env.effects.elements[h].set_attr(&name, value);
                    Ok(Value::Undefined)
                }
                "getAttribute" => Ok(env.effects.elements[h]
                    .attr(&arg_str(0))
                    .map(|v| Value::Str(v.to_owned()))
                    .unwrap_or(Value::Null)),
                "appendChild" => {
                    // Appending to an attached element attaches the child.
                    let parent_attached = env.effects.elements[h].attached;
                    if let Some(Value::Element(c)) = argv.first() {
                        if parent_attached {
                            env.effects.elements[*c].attached = true;
                        }
                    }
                    Ok(argv.into_iter().next().unwrap_or(Value::Undefined))
                }
                _ => rt(format!("element.{method} is not a function")),
            }
        }
        Value::Str(s) => string_method(s, method, argv),
        Value::Array(items) => match method {
            "join" => {
                let sep = if argv.is_empty() {
                    ",".to_owned()
                } else {
                    arg_str(0)
                };
                let joined = items
                    .borrow()
                    .iter()
                    .map(Value::to_js_string)
                    .collect::<Vec<_>>()
                    .join(&sep);
                Ok(Value::Str(joined))
            }
            "push" => {
                let mut b = items.borrow_mut();
                for a in argv {
                    b.push(a);
                }
                Ok(Value::Num(b.len() as f64))
            }
            "pop" => Ok(items.borrow_mut().pop().unwrap_or(Value::Undefined)),
            "reverse" => {
                items.borrow_mut().reverse();
                Ok(Value::Array(items.clone()))
            }
            "concat" => {
                let mut out = items.borrow().clone();
                for a in argv {
                    match a {
                        Value::Array(more) => out.extend(more.borrow().iter().cloned()),
                        v => out.push(v),
                    }
                }
                Ok(Value::Array(Rc::new(RefCell::new(out))))
            }
            _ => rt(format!("array.{method} is not a function")),
        },
        _ => rt(format!(".{method} called on non-object")),
    }
}

fn string_method(s: &str, method: &str, argv: Vec<Value>) -> Result<Value, JsError> {
    let arg_str = |i: usize| argv.get(i).map(Value::to_js_string).unwrap_or_default();
    let arg_num = |i: usize| argv.get(i).map(Value::to_num).unwrap_or(f64::NAN);
    match method {
        "split" => {
            let sep = arg_str(0);
            let parts: Vec<Value> = if argv.is_empty() {
                vec![Value::Str(s.to_owned())]
            } else if sep.is_empty() {
                s.chars().map(|c| Value::Str(c.to_string())).collect()
            } else {
                s.split(sep.as_str())
                    .map(|p| Value::Str(p.to_owned()))
                    .collect()
            };
            Ok(Value::Array(Rc::new(RefCell::new(parts))))
        }
        "replace" => Ok(Value::Str(s.replacen(
            arg_str(0).as_str(),
            arg_str(1).as_str(),
            1,
        ))),
        "charAt" => Ok(Value::Str(
            s.chars()
                .nth(arg_num(0) as usize)
                .map(|c| c.to_string())
                .unwrap_or_default(),
        )),
        "charCodeAt" => Ok(s
            .chars()
            .nth(arg_num(0) as usize)
            .map(|c| Value::Num(c as u32 as f64))
            .unwrap_or(Value::Num(f64::NAN))),
        "indexOf" => {
            let needle = arg_str(0);
            Ok(Value::Num(match s.find(needle.as_str()) {
                Some(byte) => s[..byte].chars().count() as f64,
                None => -1.0,
            }))
        }
        "substring" | "slice" => {
            let chars: Vec<char> = s.chars().collect();
            let a = (arg_num(0).max(0.0) as usize).min(chars.len());
            let b = if argv.len() > 1 {
                (arg_num(1).max(0.0) as usize).min(chars.len())
            } else {
                chars.len()
            };
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Ok(Value::Str(chars[lo..hi].iter().collect()))
        }
        "toLowerCase" => Ok(Value::Str(s.to_lowercase())),
        "toUpperCase" => Ok(Value::Str(s.to_uppercase())),
        "concat" => {
            let mut out = s.to_owned();
            for a in &argv {
                out.push_str(&a.to_js_string());
            }
            Ok(Value::Str(out))
        }
        _ => rt(format!("string.{method} is not a function")),
    }
}

/// Loose equality: same-type compares directly; otherwise numeric coercion,
/// with null/undefined equal to each other only.
pub(crate) fn loose_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Undefined | Value::Null, Value::Undefined | Value::Null) => true,
        (Value::Undefined | Value::Null, _) | (_, Value::Undefined | Value::Null) => false,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Num(x), Value::Num(y)) => x == y,
        (Value::Element(x), Value::Element(y)) => x == y,
        (Value::Native(x), Value::Native(y)) => x == y,
        _ => a.to_num() == b.to_num(),
    }
}

/// Decodes `%XX` escapes (the subset `unescape` needs).
fn percent_decode(s: &str) -> String {
    ss_types::url::decode_component(&s.replace('+', "%2B"))
}
