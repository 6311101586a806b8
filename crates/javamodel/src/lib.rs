//! A Java-subset code model: AST, pretty printer, type table and checker.
//!
//! CogniCryptGEN generates Java code through the Eclipse JDT AST. This crate
//! is the Rust substitute: generated programs are values of [`ast`] types,
//! printed to Java source text by [`printer`], and verified against the
//! modelled class library ([`typetable`], [`jca`]) by [`typecheck`]. The
//! paper's guarantee that generated code "is free of syntax errors and
//! type-checks in Java" maps onto: the AST is syntactically well-formed by
//! construction, and [`typecheck::check_unit`] succeeds.
//!
//! # Example
//!
//! ```
//! use javamodel::ast::*;
//! use javamodel::jca::jca_type_table;
//! use javamodel::typecheck::check_unit;
//!
//! let method = MethodDecl::new("hash", JavaType::byte_array())
//!     .param(JavaType::byte_array(), "data")
//!     .statement(Stmt::decl_init(
//!         JavaType::class("java.security.MessageDigest"),
//!         "md",
//!         Expr::static_call(
//!             "java.security.MessageDigest",
//!             "getInstance",
//!             vec![Expr::str("SHA-256")],
//!         ),
//!     ))
//!     .statement(Stmt::Return(Some(Expr::call(
//!         Expr::var("md"),
//!         "digest",
//!         vec![Expr::var("data")],
//!     ))));
//! let unit = CompilationUnit::new("example")
//!     .class(ClassDecl::new("Hasher").method(method));
//! check_unit(&unit, &jca_type_table())?;
//! # Ok::<(), javamodel::typecheck::TypeError>(())
//! ```

pub mod ast;
pub mod jca;
pub mod parser;
pub mod printer;
pub mod typecheck;
pub mod typetable;

pub use ast::{ClassDecl, CompilationUnit, Expr, JavaType, MethodDecl, Stmt};
pub use typecheck::TypeError;
pub use typetable::{ClassLookup, TypeTable};
