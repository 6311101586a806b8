//! Abstract syntax tree for the Java subset the generator emits.
//!
//! The subset covers exactly what the eleven use cases of the paper need:
//! classes with fields and methods, local variable declarations,
//! assignments, method/constructor/static calls, array creation and
//! literals, `if`, `return`, and a small expression language. Builders on
//! the node types keep construction terse in the generator.

use std::fmt;

/// A Java type: primitives, arrays and class references.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JavaType {
    /// `void`
    Void,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `boolean`
    Boolean,
    /// `char`
    Char,
    /// `byte`
    Byte,
    /// `T[]`
    Array(Box<JavaType>),
    /// A class or interface, stored fully qualified
    /// (`javax.crypto.Cipher`).
    Class(String),
}

impl JavaType {
    /// Creates a class type from a fully-qualified name.
    pub fn class(name: impl Into<String>) -> Self {
        JavaType::Class(name.into())
    }

    /// `byte[]`
    pub fn byte_array() -> Self {
        JavaType::Array(Box::new(JavaType::Byte))
    }

    /// `char[]`
    pub fn char_array() -> Self {
        JavaType::Array(Box::new(JavaType::Char))
    }

    /// `java.lang.String`
    pub fn string() -> Self {
        JavaType::class("java.lang.String")
    }

    /// The simple (unqualified) name used when printing.
    pub fn simple_name(&self) -> String {
        let mut name = String::new();
        crate::printer::write_type(&mut name, self);
        name
    }

    /// The fully-qualified name of the class behind this type, if any
    /// (unwraps arrays).
    pub fn class_name(&self) -> Option<&str> {
        match self {
            JavaType::Class(n) => Some(n),
            JavaType::Array(inner) => inner.class_name(),
            _ => None,
        }
    }

    /// Whether this is a reference type (class or array).
    pub fn is_reference(&self) -> bool {
        matches!(self, JavaType::Class(_) | JavaType::Array(_))
    }
}

impl fmt::Display for JavaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JavaType::Void => f.write_str("void"),
            JavaType::Int => f.write_str("int"),
            JavaType::Long => f.write_str("long"),
            JavaType::Boolean => f.write_str("boolean"),
            JavaType::Char => f.write_str("char"),
            JavaType::Byte => f.write_str("byte"),
            JavaType::Array(inner) => write!(f, "{inner}[]"),
            JavaType::Class(n) => f.write_str(n),
        }
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`
    Null,
}

impl Eq for Lit {}

/// Binary operators (the small set the use cases need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `+` (int addition or string concatenation)
    Add,
    /// `<`
    Lt,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal.
    Lit(Lit),
    /// A local variable or parameter reference.
    Var(String),
    /// `new C(args)`
    New {
        /// Fully-qualified class name.
        class: String,
        /// Constructor arguments.
        args: Vec<Expr>,
    },
    /// `recv.name(args)`
    Call {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `C.name(args)` — static invocation.
    StaticCall {
        /// Fully-qualified class name.
        class: String,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `C.FIELD` — a static field/constant reference (e.g.
    /// `Cipher.ENCRYPT_MODE`).
    StaticField {
        /// Fully-qualified class name.
        class: String,
        /// Field name.
        field: String,
    },
    /// `new T[len]`
    NewArray {
        /// Element type.
        elem: JavaType,
        /// Length expression.
        len: Box<Expr>,
    },
    /// `new T[] { ... }` / `{ ... }` initializer.
    ArrayLit {
        /// Element type.
        elem: JavaType,
        /// Elements.
        elems: Vec<Expr>,
    },
    /// `a op b`
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `(T) e`
    Cast {
        /// Target type.
        ty: JavaType,
        /// Operand.
        expr: Box<Expr>,
    },
}

impl Expr {
    /// Integer literal.
    pub fn int(v: i64) -> Self {
        Expr::Lit(Lit::Int(v))
    }

    /// String literal.
    pub fn str(v: impl Into<String>) -> Self {
        Expr::Lit(Lit::Str(v.into()))
    }

    /// Boolean literal.
    pub fn bool(v: bool) -> Self {
        Expr::Lit(Lit::Bool(v))
    }

    /// `null` literal.
    pub fn null() -> Self {
        Expr::Lit(Lit::Null)
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// Instance method call.
    pub fn call(recv: Expr, name: impl Into<String>, args: Vec<Expr>) -> Self {
        Expr::Call {
            recv: Box::new(recv),
            name: name.into(),
            args,
        }
    }

    /// Static method call.
    pub fn static_call(class: impl Into<String>, name: impl Into<String>, args: Vec<Expr>) -> Self {
        Expr::StaticCall {
            class: class.into(),
            name: name.into(),
            args,
        }
    }

    /// Constructor invocation.
    pub fn new_object(class: impl Into<String>, args: Vec<Expr>) -> Self {
        Expr::New {
            class: class.into(),
            args,
        }
    }

    /// `new elem[len]`.
    pub fn new_array(elem: JavaType, len: Expr) -> Self {
        Expr::NewArray {
            elem,
            len: Box::new(len),
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `T name = init;` (initializer optional)
    Decl {
        /// Declared type.
        ty: JavaType,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// `target = value;`
    Assign {
        /// Assigned variable name.
        target: String,
        /// Right-hand side.
        value: Expr,
    },
    /// An expression used for its side effect.
    Expr(Expr),
    /// `return e;` / `return;`
    Return(Option<Expr>),
    /// `if (cond) { then } else { else }`
    If {
        /// Condition (must be boolean).
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// A line comment attached to the output (used for the generated
    /// `templateUsage` hints).
    Comment(String),
}

impl Stmt {
    /// `T name = init;`
    pub fn decl_init(ty: JavaType, name: impl Into<String>, init: Expr) -> Self {
        Stmt::Decl {
            ty,
            name: name.into(),
            init: Some(init),
        }
    }

    /// `T name;`
    pub fn decl(ty: JavaType, name: impl Into<String>) -> Self {
        Stmt::Decl {
            ty,
            name: name.into(),
            init: None,
        }
    }

    /// `target = value;`
    pub fn assign(target: impl Into<String>, value: Expr) -> Self {
        Stmt::Assign {
            target: target.into(),
            value,
        }
    }
}

/// A method parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter type.
    pub ty: JavaType,
    /// Parameter name.
    pub name: String,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDecl {
    /// Method name.
    pub name: String,
    /// Return type.
    pub return_type: JavaType,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Whether the method is `static`.
    pub is_static: bool,
    /// The body.
    pub body: Vec<Stmt>,
}

impl MethodDecl {
    /// Creates an empty public instance method.
    pub fn new(name: impl Into<String>, return_type: JavaType) -> Self {
        MethodDecl {
            name: name.into(),
            return_type,
            params: Vec::new(),
            is_static: false,
            body: Vec::new(),
        }
    }

    /// Adds a parameter (builder style).
    pub fn param(mut self, ty: JavaType, name: impl Into<String>) -> Self {
        self.params.push(Param {
            ty,
            name: name.into(),
        });
        self
    }

    /// Appends a statement (builder style).
    pub fn statement(mut self, stmt: Stmt) -> Self {
        self.body.push(stmt);
        self
    }

    /// Marks the method `static` (builder style).
    pub fn set_static(mut self) -> Self {
        self.is_static = true;
        self
    }
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field type.
    pub ty: JavaType,
    /// Field name.
    pub name: String,
    /// Optional initializer.
    pub init: Option<Expr>,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDecl {
    /// Simple class name.
    pub name: String,
    /// Fields.
    pub fields: Vec<FieldDecl>,
    /// Methods.
    pub methods: Vec<MethodDecl>,
}

impl ClassDecl {
    /// Creates an empty public class.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDecl {
            name: name.into(),
            fields: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// Adds a method (builder style).
    pub fn method(mut self, m: MethodDecl) -> Self {
        self.methods.push(m);
        self
    }

    /// Looks up a method by name.
    pub fn find_method(&self, name: &str) -> Option<&MethodDecl> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// A compilation unit: a package with one or more classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilationUnit {
    /// Package name (dotted).
    pub package: String,
    /// Top-level classes.
    pub classes: Vec<ClassDecl>,
}

impl CompilationUnit {
    /// Creates an empty unit in `package`.
    pub fn new(package: impl Into<String>) -> Self {
        CompilationUnit {
            package: package.into(),
            classes: Vec::new(),
        }
    }

    /// Adds a class (builder style).
    pub fn class(mut self, c: ClassDecl) -> Self {
        self.classes.push(c);
        self
    }

    /// Looks up a class by simple name.
    pub fn find_class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_type_display_and_names() {
        assert_eq!(JavaType::byte_array().to_string(), "byte[]");
        assert_eq!(
            JavaType::class("javax.crypto.Cipher").simple_name(),
            "Cipher"
        );
        assert_eq!(
            JavaType::Array(Box::new(JavaType::class("a.B"))).class_name(),
            Some("a.B")
        );
        assert!(JavaType::byte_array().is_reference());
        assert!(!JavaType::Int.is_reference());
    }

    #[test]
    fn builders_compose() {
        let m = MethodDecl::new("go", JavaType::Void)
            .param(JavaType::Int, "x")
            .statement(Stmt::Return(None))
            .set_static();
        assert!(m.is_static);
        assert_eq!(m.params.len(), 1);
        let c = ClassDecl::new("C").method(m);
        assert!(c.find_method("go").is_some());
        let u = CompilationUnit::new("p").class(c);
        assert!(u.find_class("C").is_some());
        assert!(u.find_class("D").is_none());
    }
}
