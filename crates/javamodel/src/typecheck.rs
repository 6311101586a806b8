//! Structural type checker for the Java subset.
//!
//! Checks a [`CompilationUnit`] against a [`TypeTable`]: every variable is
//! declared before use, every call resolves to a modelled method with
//! assignable argument types, declarations and returns are type-correct.
//! This is the reproduction of the paper's guarantee that generated code
//! "type-checks in Java".

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::LazyLock;

use crate::ast::*;
use crate::typetable::{ClassLookup, TypeTable};

/// A type error, with a human-readable description of the offending
/// construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Description of the violation.
    pub message: String,
}

impl TypeError {
    fn new(message: impl Into<String>) -> Self {
        TypeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl Error for TypeError {}

/// The inferred type of an expression; `null` gets its own marker so it is
/// assignable to any reference type. Types are borrowed from the unit or
/// the class database wherever they already exist there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inferred<'a> {
    /// An ordinary type.
    Ty(Cow<'a, JavaType>),
    /// The `null` literal.
    Null,
}

impl Inferred<'_> {
    fn assignable_to(&self, to: &JavaType, classes: &impl ClassLookup) -> bool {
        match self {
            Inferred::Null => to.is_reference(),
            Inferred::Ty(t) => classes.is_assignable(t, to),
        }
    }

    fn is(&self, ty: &JavaType) -> bool {
        matches!(self, Inferred::Ty(t) if **t == *ty)
    }
}

/// `java.lang.String` and `java.lang.Object`, built once so literals and
/// `null` arguments borrow them instead of allocating a name per use.
static STRING_TYPE: LazyLock<JavaType> = LazyLock::new(JavaType::string);
static OBJECT_TYPE: LazyLock<JavaType> = LazyLock::new(|| JavaType::class("java.lang.Object"));

/// Checks every class and method of `unit` against `table`.
///
/// # Errors
///
/// Returns the first [`TypeError`] found, describing the method and
/// construct at fault. Methods of classes declared inside `unit` may call
/// each other through a synthetic local object; cross-class calls resolve
/// against the unit's own classes as well as the table.
pub fn check_unit(unit: &CompilationUnit, table: &TypeTable) -> Result<(), TypeError> {
    check_unit_in(unit, table)
}

/// [`check_unit`] against any [`ClassLookup`] — in particular a
/// [`crate::typetable::TableOverlay`], which adds the unit's own template
/// class to a borrowed table without copying it.
///
/// # Errors
///
/// See [`check_unit`].
pub fn check_unit_in(unit: &CompilationUnit, classes: &impl ClassLookup) -> Result<(), TypeError> {
    for class in &unit.classes {
        for method in &class.methods {
            check_method(unit, class, method, classes).map_err(|e| {
                TypeError::new(format!("{}.{}: {}", class.name, method.name, e.message))
            })?;
        }
    }
    Ok(())
}

fn check_method<L: ClassLookup>(
    unit: &CompilationUnit,
    class: &ClassDecl,
    method: &MethodDecl,
    classes: &L,
) -> Result<(), TypeError> {
    let mut env = Env::default();
    for p in &method.params {
        if env.get(&p.name).is_some() {
            return Err(TypeError::new(format!("duplicate parameter `{}`", p.name)));
        }
        env.vars.push((&p.name, &p.ty));
    }
    let ck = Checker {
        unit,
        class,
        classes,
    };
    ck.check_block(&method.body, &mut env, &method.return_type)
}

/// The variables in scope, innermost last. A branch scope is the stack
/// truncated back to its length at the branch, so scopes cost no copies.
#[derive(Default)]
struct Env<'a> {
    vars: Vec<(&'a str, &'a JavaType)>,
}

impl<'a> Env<'a> {
    fn get(&self, name: &str) -> Option<&'a JavaType> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
    }
}

struct Checker<'a, L> {
    unit: &'a CompilationUnit,
    class: &'a ClassDecl,
    classes: &'a L,
}

impl<'a, L: ClassLookup> Checker<'a, L> {
    fn check_block(
        &self,
        stmts: &'a [Stmt],
        env: &mut Env<'a>,
        ret: &JavaType,
    ) -> Result<(), TypeError> {
        for s in stmts {
            self.check_stmt(s, env, ret)?;
        }
        Ok(())
    }

    fn check_stmt(&self, s: &'a Stmt, env: &mut Env<'a>, ret: &JavaType) -> Result<(), TypeError> {
        match s {
            Stmt::Decl { ty, name, init } => {
                if env.get(name).is_some() {
                    return Err(TypeError::new(format!("variable `{name}` redeclared")));
                }
                if let Some(e) = init {
                    let it = self.infer(e, env)?;
                    if !it.assignable_to(ty, self.classes) {
                        return Err(TypeError::new(format!(
                            "cannot initialize `{name}: {ty}` with {it:?}"
                        )));
                    }
                }
                env.vars.push((name, ty));
                Ok(())
            }
            Stmt::Assign { target, value } => {
                let Some(ty) = env.get(target) else {
                    return Err(TypeError::new(format!(
                        "assignment to undeclared `{target}`"
                    )));
                };
                let it = self.infer(value, env)?;
                if !it.assignable_to(ty, self.classes) {
                    return Err(TypeError::new(format!(
                        "cannot assign {it:?} to `{target}: {ty}`"
                    )));
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.infer(e, env)?;
                Ok(())
            }
            Stmt::Return(None) => {
                if *ret != JavaType::Void {
                    return Err(TypeError::new("missing return value"));
                }
                Ok(())
            }
            Stmt::Return(Some(e)) => {
                let it = self.infer(e, env)?;
                if *ret == JavaType::Void {
                    return Err(TypeError::new("void method returns a value"));
                }
                if !it.assignable_to(ret, self.classes) {
                    return Err(TypeError::new(format!(
                        "return type mismatch: {it:?} vs `{ret}`"
                    )));
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let it = self.infer(cond, env)?;
                if !it.is(&JavaType::Boolean) {
                    return Err(TypeError::new("if-condition must be boolean"));
                }
                // Each branch introduces its own scope.
                let outer = env.vars.len();
                self.check_block(then_body, env, ret)?;
                env.vars.truncate(outer);
                self.check_block(else_body, env, ret)?;
                env.vars.truncate(outer);
                Ok(())
            }
            Stmt::Comment(_) => Ok(()),
        }
    }

    fn infer(&self, e: &'a Expr, env: &Env<'a>) -> Result<Inferred<'a>, TypeError> {
        match e {
            Expr::Lit(Lit::Int(_)) => Ok(Inferred::Ty(Cow::Owned(JavaType::Int))),
            Expr::Lit(Lit::Str(_)) => Ok(Inferred::Ty(Cow::Borrowed(&STRING_TYPE))),
            Expr::Lit(Lit::Bool(_)) => Ok(Inferred::Ty(Cow::Owned(JavaType::Boolean))),
            Expr::Lit(Lit::Null) => Ok(Inferred::Null),
            Expr::Var(v) => env
                .get(v)
                .map(|t| Inferred::Ty(Cow::Borrowed(t)))
                .ok_or_else(|| TypeError::new(format!("undeclared variable `{v}`"))),
            Expr::New { class, args } => {
                let arg_tys = self.infer_args(args, env)?;
                if self.classes.resolve_ctor(class, &arg_tys).is_none() {
                    return Err(TypeError::new(format!(
                        "no constructor {class}({arg_tys:?})"
                    )));
                }
                Ok(Inferred::Ty(Cow::Owned(JavaType::class(class.as_str()))))
            }
            Expr::Call { recv, name, args } => {
                let recv_t = self.infer(recv, env)?;
                let Inferred::Ty(rt) = recv_t else {
                    return Err(TypeError::new(format!("call `{name}` on null")));
                };
                // Calls on classes declared in the unit itself (template
                // methods) resolve against the unit.
                if let Some(class_name) = rt.class_name() {
                    if let Some(local) = self.local_class(class_name) {
                        return self.infer_local_call(local, name, args, env);
                    }
                    let arg_tys = self.infer_args(args, env)?;
                    let m = self
                        .classes
                        .resolve_method(class_name, name, false, &arg_tys)
                        .ok_or_else(|| {
                            TypeError::new(format!("no method {class_name}.{name}({arg_tys:?})"))
                        })?;
                    Ok(Inferred::Ty(Cow::Borrowed(&m.ret)))
                } else {
                    Err(TypeError::new(format!(
                        "method call `{name}` on non-class type `{rt}`"
                    )))
                }
            }
            Expr::StaticCall { class, name, args } => {
                let arg_tys = self.infer_args(args, env)?;
                let m = self
                    .classes
                    .resolve_method(class, name, true, &arg_tys)
                    .ok_or_else(|| {
                        TypeError::new(format!("no static method {class}.{name}({arg_tys:?})"))
                    })?;
                Ok(Inferred::Ty(Cow::Borrowed(&m.ret)))
            }
            Expr::StaticField { class, field } => {
                let c = self
                    .classes
                    .resolve_constant(class, field)
                    .ok_or_else(|| TypeError::new(format!("no constant {class}.{field}")))?;
                Ok(Inferred::Ty(Cow::Borrowed(&c.ty)))
            }
            Expr::NewArray { elem, len } => {
                let lt = self.infer(len, env)?;
                if !lt.is(&JavaType::Int) {
                    return Err(TypeError::new("array length must be int"));
                }
                Ok(Inferred::Ty(Cow::Owned(JavaType::Array(Box::new(
                    elem.clone(),
                )))))
            }
            Expr::ArrayLit { elem, elems } => {
                for el in elems {
                    let it = self.infer(el, env)?;
                    // Byte array literals are written with int literals,
                    // mirroring Java's implicit narrowing for constants.
                    let ok = (it.is(&JavaType::Int)
                        && matches!(elem, JavaType::Byte | JavaType::Char))
                        || it.assignable_to(elem, self.classes);
                    if !ok {
                        return Err(TypeError::new(format!(
                            "array element {it:?} not assignable to `{elem}`"
                        )));
                    }
                }
                Ok(Inferred::Ty(Cow::Owned(JavaType::Array(Box::new(
                    elem.clone(),
                )))))
            }
            Expr::Bin { op, lhs, rhs } => {
                let lt = self.infer(lhs, env)?;
                let rt = self.infer(rhs, env)?;
                let ints = lt.is(&JavaType::Int) && rt.is(&JavaType::Int);
                match op {
                    BinOp::Add => {
                        if ints {
                            Ok(Inferred::Ty(Cow::Owned(JavaType::Int)))
                        } else if lt.is(&STRING_TYPE) || rt.is(&STRING_TYPE) {
                            Ok(Inferred::Ty(Cow::Borrowed(&STRING_TYPE)))
                        } else {
                            Err(TypeError::new("`+` needs ints or a string"))
                        }
                    }
                    BinOp::Lt => {
                        if ints {
                            Ok(Inferred::Ty(Cow::Owned(JavaType::Boolean)))
                        } else {
                            Err(TypeError::new("`<` needs int operands"))
                        }
                    }
                    BinOp::Eq | BinOp::Ne => Ok(Inferred::Ty(Cow::Owned(JavaType::Boolean))),
                }
            }
            Expr::Cast { ty, expr } => {
                self.infer(expr, env)?;
                Ok(Inferred::Ty(Cow::Borrowed(ty)))
            }
        }
    }

    fn infer_args(
        &self,
        args: &'a [Expr],
        env: &Env<'a>,
    ) -> Result<Vec<Cow<'a, JavaType>>, TypeError> {
        args.iter()
            .map(|a| match self.infer(a, env)? {
                Inferred::Ty(t) => Ok(t),
                // `null` arguments match any reference parameter; model as
                // Object, which our assignability accepts only for Object
                // parameters — stricter than Java but safe.
                Inferred::Null => Ok(Cow::Borrowed(&*OBJECT_TYPE)),
            })
            .collect()
    }

    fn local_class(&self, name: &str) -> Option<&'a ClassDecl> {
        // Local classes are referenced by simple name.
        self.unit
            .classes
            .iter()
            .find(|c| c.name == name)
            .or_else(|| {
                if self.class.name == name {
                    Some(self.class)
                } else {
                    None
                }
            })
    }

    fn infer_local_call(
        &self,
        class: &'a ClassDecl,
        name: &str,
        args: &'a [Expr],
        env: &Env<'a>,
    ) -> Result<Inferred<'a>, TypeError> {
        let m = class
            .find_method(name)
            .ok_or_else(|| TypeError::new(format!("no method {}.{}", class.name, name)))?;
        let arg_tys = self.infer_args(args, env)?;
        if m.params.len() != arg_tys.len() {
            return Err(TypeError::new(format!(
                "{}.{} expects {} arguments, got {}",
                class.name,
                name,
                m.params.len(),
                arg_tys.len()
            )));
        }
        for (p, a) in m.params.iter().zip(&arg_tys) {
            if !self.classes.is_assignable(a, &p.ty) {
                return Err(TypeError::new(format!(
                    "{}.{}: argument `{a}` not assignable to `{}`",
                    class.name, name, p.ty
                )));
            }
        }
        Ok(Inferred::Ty(Cow::Borrowed(&m.return_type)))
    }
}

/// Resolves `new C()` of unit-local classes: the checker treats a local
/// class name as constructible with zero arguments (our templates only ever
/// use the implicit default constructor).
pub fn is_local_default_ctor(unit: &CompilationUnit, class: &str) -> bool {
    unit.classes.iter().any(|c| c.name == class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jca::jca_type_table;

    fn check_method_src(m: MethodDecl) -> Result<(), TypeError> {
        let unit = CompilationUnit::new("p").class(ClassDecl::new("C").method(m));
        check_unit(&unit, &jca_type_table())
    }

    #[test]
    fn accepts_well_typed_digest() {
        let m = MethodDecl::new("hash", JavaType::byte_array())
            .param(JavaType::byte_array(), "data")
            .statement(Stmt::decl_init(
                JavaType::class("java.security.MessageDigest"),
                "md",
                Expr::static_call(
                    "java.security.MessageDigest",
                    "getInstance",
                    vec![Expr::str("SHA-256")],
                ),
            ))
            .statement(Stmt::Return(Some(Expr::call(
                Expr::var("md"),
                "digest",
                vec![Expr::var("data")],
            ))));
        check_method_src(m).unwrap();
    }

    #[test]
    fn rejects_undeclared_variable() {
        let m = MethodDecl::new("f", JavaType::Void).statement(Stmt::Expr(Expr::var("ghost")));
        let err = check_method_src(m).unwrap_err();
        assert!(err.message.contains("undeclared variable"));
    }

    #[test]
    fn rejects_bad_argument_type() {
        // MessageDigest.getInstance(int) does not exist.
        let m = MethodDecl::new("f", JavaType::Void).statement(Stmt::Expr(Expr::static_call(
            "java.security.MessageDigest",
            "getInstance",
            vec![Expr::int(5)],
        )));
        assert!(check_method_src(m).is_err());
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let m = MethodDecl::new("f", JavaType::Int).statement(Stmt::Return(Some(Expr::str("x"))));
        assert!(check_method_src(m).is_err());
    }

    #[test]
    fn rejects_redeclaration() {
        let m = MethodDecl::new("f", JavaType::Void)
            .statement(Stmt::decl(JavaType::Int, "x"))
            .statement(Stmt::decl(JavaType::Int, "x"));
        assert!(check_method_src(m).is_err());
    }

    #[test]
    fn null_assignable_to_reference_only() {
        let ok = MethodDecl::new("f", JavaType::Void).statement(Stmt::decl_init(
            JavaType::class("javax.crypto.SecretKey"),
            "k",
            Expr::null(),
        ));
        check_method_src(ok).unwrap();
        let bad = MethodDecl::new("f", JavaType::Void).statement(Stmt::decl_init(
            JavaType::Int,
            "k",
            Expr::null(),
        ));
        assert!(check_method_src(bad).is_err());
    }

    #[test]
    fn widening_to_interface_parameter() {
        // generateSecret takes KeySpec; PBEKeySpec implements it.
        let m = MethodDecl::new("f", JavaType::Void)
            .param(JavaType::char_array(), "pwd")
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.spec.PBEKeySpec"),
                "spec",
                Expr::new_object(
                    "javax.crypto.spec.PBEKeySpec",
                    vec![
                        Expr::var("pwd"),
                        Expr::new_array(JavaType::Byte, Expr::int(32)),
                        Expr::int(10000),
                        Expr::int(128),
                    ],
                ),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.SecretKeyFactory"),
                "skf",
                Expr::static_call(
                    "javax.crypto.SecretKeyFactory",
                    "getInstance",
                    vec![Expr::str("PBKDF2WithHmacSHA256")],
                ),
            ))
            .statement(Stmt::Expr(Expr::call(
                Expr::var("skf"),
                "generateSecret",
                vec![Expr::var("spec")],
            )));
        check_method_src(m).unwrap();
    }

    #[test]
    fn calls_between_unit_classes_resolve() {
        let callee =
            MethodDecl::new("produce", JavaType::Int).statement(Stmt::Return(Some(Expr::int(1))));
        let caller = MethodDecl::new("consume", JavaType::Int)
            .statement(Stmt::decl_init(
                JavaType::class("Helper"),
                "h",
                Expr::new_object("Helper", vec![]),
            ))
            .statement(Stmt::Return(Some(Expr::call(
                Expr::var("h"),
                "produce",
                vec![],
            ))));
        let mut table = jca_type_table();
        // Local classes are constructible with their default constructor:
        // model `Helper` in the table for the `new` expression.
        table.add(crate::typetable::ClassDef::new("Helper").ctor(vec![]));
        let unit = CompilationUnit::new("p")
            .class(ClassDecl::new("Helper").method(callee))
            .class(ClassDecl::new("Main").method(caller));
        check_unit(&unit, &table).unwrap();
    }

    #[test]
    fn if_condition_must_be_boolean() {
        let m = MethodDecl::new("f", JavaType::Void).statement(Stmt::If {
            cond: Expr::int(1),
            then_body: vec![],
            else_body: vec![],
        });
        assert!(check_method_src(m).is_err());
    }

    #[test]
    fn byte_array_literal_accepts_int_constants() {
        let m = MethodDecl::new("f", JavaType::Void).statement(Stmt::decl_init(
            JavaType::byte_array(),
            "salt",
            Expr::ArrayLit {
                elem: JavaType::Byte,
                elems: vec![Expr::int(15), Expr::int(-12)],
            },
        ));
        check_method_src(m).unwrap();
    }
}
