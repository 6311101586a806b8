//! Pretty-printer emitting Java source text from the AST.
//!
//! Output uses simple type names (no import management), four-space
//! indentation, and one statement per line — the same style the paper's
//! generated listings use. Everything is written in place into one
//! caller-owned `String`: no expression, argument list or type name is
//! rendered to a string of its own first.

use std::fmt::Write as _;

use crate::ast::*;

/// Initial capacity of [`print_unit`]'s buffer. Every catalogued unit
/// prints to under 4 KB, so one allocation holds the whole text where
/// growing from empty would reallocate about ten times.
const UNIT_CAPACITY: usize = 4096;

/// Renders a compilation unit as Java source text.
pub fn print_unit(unit: &CompilationUnit) -> String {
    let mut out = String::with_capacity(UNIT_CAPACITY);
    if !unit.package.is_empty() {
        out.push_str("package ");
        out.push_str(&unit.package);
        out.push_str(";\n\n");
    }
    for (i, c) in unit.classes.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_class(&mut out, c);
    }
    out
}

/// Renders a single class, appending to `out`.
pub fn print_class(out: &mut String, class: &ClassDecl) {
    out.push_str("public class ");
    out.push_str(&class.name);
    out.push_str(" {\n");
    for f in &class.fields {
        out.push_str("    private ");
        write_type(out, &f.ty);
        out.push(' ');
        out.push_str(&f.name);
        if let Some(init) = &f.init {
            out.push_str(" = ");
            write_expr(out, init);
        }
        out.push_str(";\n");
    }
    for (i, m) in class.methods.iter().enumerate() {
        if i > 0 || !class.fields.is_empty() {
            out.push('\n');
        }
        write_method_header(out, m.is_static, &m.return_type, &m.name, &m.params);
        for s in &m.body {
            print_stmt(out, s, 2);
        }
        out.push_str("    }\n");
    }
    out.push_str("}\n");
}

/// Writes the opening line of a public method declaration,
/// `    public [static ]Ret name(T a, U b) {`, appending to `out`. Public so
/// template renderers print signatures exactly as generated code does.
pub fn write_method_header(
    out: &mut String,
    is_static: bool,
    return_type: &JavaType,
    name: &str,
    params: &[Param],
) {
    out.push_str(if is_static {
        "    public static "
    } else {
        "    public "
    });
    write_type(out, return_type);
    out.push(' ');
    out.push_str(name);
    out.push('(');
    for (i, p) in params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_type(out, &p.ty);
        out.push(' ');
        out.push_str(&p.name);
    }
    out.push_str(") {\n");
}

/// Renders one statement at the given indentation level (four spaces per
/// level), appending to `out`. Public so template renderers can reuse the
/// exact statement syntax of generated code.
pub fn print_stmt_to(out: &mut String, s: &Stmt, level: usize) {
    print_stmt(out, s, level);
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match s {
        Stmt::Decl { ty, name, init } => {
            write_type(out, ty);
            out.push(' ');
            out.push_str(name);
            if let Some(e) = init {
                out.push_str(" = ");
                write_expr(out, e);
            }
            out.push_str(";\n");
        }
        Stmt::Assign { target, value } => {
            out.push_str(target);
            out.push_str(" = ");
            write_expr(out, value);
            out.push_str(";\n");
        }
        Stmt::Expr(e) => {
            write_expr(out, e);
            out.push_str(";\n");
        }
        Stmt::Return(None) => out.push_str("return;\n"),
        Stmt::Return(Some(e)) => {
            out.push_str("return ");
            write_expr(out, e);
            out.push_str(";\n");
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            out.push_str("if (");
            write_expr(out, cond);
            out.push_str(") {\n");
            for s in then_body {
                print_stmt(out, s, level + 1);
            }
            indent(out, level);
            if !else_body.is_empty() {
                out.push_str("} else {\n");
                for s in else_body {
                    print_stmt(out, s, level + 1);
                }
                indent(out, level);
            }
            out.push_str("}\n");
        }
        Stmt::Comment(text) => {
            out.push_str("// ");
            out.push_str(text);
            out.push('\n');
        }
    }
}

/// Renders a single expression.
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Lit(Lit::Int(i)) => {
            let _ = write!(out, "{i}");
        }
        Expr::Lit(Lit::Str(s)) => {
            out.push('"');
            for c in s.chars() {
                if c == '\\' || c == '"' {
                    out.push('\\');
                }
                out.push(c);
            }
            out.push('"');
        }
        Expr::Lit(Lit::Bool(b)) => out.push_str(if *b { "true" } else { "false" }),
        Expr::Lit(Lit::Null) => out.push_str("null"),
        Expr::Var(v) => out.push_str(v),
        Expr::New { class, args } => {
            out.push_str("new ");
            out.push_str(simple(class));
            write_args(out, '(', args, ')');
        }
        Expr::Call { recv, name, args } => {
            write_expr(out, recv);
            out.push('.');
            out.push_str(name);
            write_args(out, '(', args, ')');
        }
        Expr::StaticCall { class, name, args } => {
            out.push_str(simple(class));
            out.push('.');
            out.push_str(name);
            write_args(out, '(', args, ')');
        }
        Expr::StaticField { class, field } => {
            out.push_str(simple(class));
            out.push('.');
            out.push_str(field);
        }
        Expr::NewArray { elem, len } => {
            out.push_str("new ");
            write_type(out, elem);
            out.push('[');
            write_expr(out, len);
            out.push(']');
        }
        Expr::ArrayLit { elem, elems } => {
            out.push_str("new ");
            write_type(out, elem);
            out.push_str("[] ");
            write_args(out, '{', elems, '}');
        }
        Expr::Bin { op, lhs, rhs } => {
            write_expr(out, lhs);
            out.push_str(match op {
                BinOp::Eq => " == ",
                BinOp::Ne => " != ",
                BinOp::Add => " + ",
                BinOp::Lt => " < ",
            });
            write_expr(out, rhs);
        }
        Expr::Cast { ty, expr } => {
            out.push('(');
            write_type(out, ty);
            out.push_str(") ");
            write_expr(out, expr);
        }
    }
}

/// Writes `open a, b, c close`.
fn write_args(out: &mut String, open: char, args: &[Expr], close: char) {
    out.push(open);
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, a);
    }
    out.push(close);
}

/// Writes the name a type has in printed source: the simple name for
/// classes (the printed code reads like the paper's listings), the
/// primitive name otherwise. [`JavaType::simple_name`] is this, collected
/// into a `String`.
pub(crate) fn write_type(out: &mut String, ty: &JavaType) {
    match ty {
        JavaType::Void => out.push_str("void"),
        JavaType::Int => out.push_str("int"),
        JavaType::Long => out.push_str("long"),
        JavaType::Boolean => out.push_str("boolean"),
        JavaType::Char => out.push_str("char"),
        JavaType::Byte => out.push_str("byte"),
        JavaType::Array(inner) => {
            write_type(out, inner);
            out.push_str("[]");
        }
        JavaType::Class(n) => out.push_str(simple(n)),
    }
}

fn simple(fqn: &str) -> &str {
    fqn.rsplit('.').next().unwrap_or(fqn)
}

/// Counts the non-blank lines of a printed artefact — the measure used by
/// the paper's Table 2 (RQ4).
pub fn count_loc(source: &str) -> usize {
    source.lines().filter(|l| !l.trim().is_empty()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_paper_style_pbe_snippet() {
        let m = MethodDecl::new("generateKey", JavaType::class("javax.crypto.SecretKey"))
            .param(JavaType::char_array(), "pwd")
            .statement(Stmt::decl_init(
                JavaType::byte_array(),
                "salt",
                Expr::new_array(JavaType::Byte, Expr::int(32)),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("java.security.SecureRandom"),
                "secureRandom",
                Expr::static_call(
                    "java.security.SecureRandom",
                    "getInstance",
                    vec![Expr::str("SHA1PRNG")],
                ),
            ))
            .statement(Stmt::Expr(Expr::call(
                Expr::var("secureRandom"),
                "nextBytes",
                vec![Expr::var("salt")],
            )))
            .statement(Stmt::Return(Some(Expr::null())));
        let unit = CompilationUnit::new("de.crypto.cognicrypt")
            .class(ClassDecl::new("TemplateClass").method(m));
        let src = print_unit(&unit);
        assert!(src.contains("package de.crypto.cognicrypt;"));
        assert!(src.contains("public class TemplateClass {"));
        assert!(src.contains("public SecretKey generateKey(char[] pwd) {"));
        assert!(src.contains("byte[] salt = new byte[32];"));
        assert!(src.contains("SecureRandom secureRandom = SecureRandom.getInstance(\"SHA1PRNG\");"));
        assert!(src.contains("secureRandom.nextBytes(salt);"));
        assert!(src.contains("return null;"));
    }

    #[test]
    fn prints_control_flow_and_operators() {
        let m = MethodDecl::new("check", JavaType::Boolean)
            .param(JavaType::Int, "x")
            .statement(Stmt::If {
                cond: Expr::Bin {
                    op: BinOp::Lt,
                    lhs: Box::new(Expr::var("x")),
                    rhs: Box::new(Expr::int(10)),
                },
                then_body: vec![Stmt::Return(Some(Expr::bool(true)))],
                else_body: vec![Stmt::Return(Some(Expr::bool(false)))],
            });
        let mut out = String::new();
        print_class(&mut out, &ClassDecl::new("C").method(m));
        assert!(out.contains("if (x < 10) {"));
        assert!(out.contains("} else {"));
        assert!(out.contains("return true;"));
    }

    #[test]
    fn prints_static_field_cast_and_array_literal() {
        assert_eq!(
            print_expr(&Expr::StaticField {
                class: "javax.crypto.Cipher".into(),
                field: "ENCRYPT_MODE".into()
            }),
            "Cipher.ENCRYPT_MODE"
        );
        assert_eq!(
            print_expr(&Expr::Cast {
                ty: JavaType::class("javax.crypto.SecretKey"),
                expr: Box::new(Expr::var("k"))
            }),
            "(SecretKey) k"
        );
        assert_eq!(
            print_expr(&Expr::ArrayLit {
                elem: JavaType::Byte,
                elems: vec![Expr::int(1), Expr::int(2)]
            }),
            "new byte[] {1, 2}"
        );
    }

    #[test]
    fn string_escaping() {
        assert_eq!(print_expr(&Expr::str("a\"b\\c")), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn loc_counts_nonblank_lines() {
        assert_eq!(count_loc("a\n\n  \nb\nc\n"), 3);
    }

    fn stmt_at(s: &Stmt, level: usize) -> String {
        let mut out = String::new();
        print_stmt_to(&mut out, s, level);
        out
    }

    #[test]
    fn exact_literals_and_vars() {
        assert_eq!(print_expr(&Expr::int(0)), "0");
        assert_eq!(print_expr(&Expr::int(-12)), "-12");
        assert_eq!(print_expr(&Expr::bool(true)), "true");
        assert_eq!(print_expr(&Expr::bool(false)), "false");
        assert_eq!(print_expr(&Expr::null()), "null");
        assert_eq!(print_expr(&Expr::var("secretKey")), "secretKey");
        assert_eq!(print_expr(&Expr::str("")), "\"\"");
        assert_eq!(
            print_expr(&Expr::str("AES/GCM/NoPadding")),
            "\"AES/GCM/NoPadding\""
        );
        assert_eq!(print_expr(&Expr::str("\\")), "\"\\\\\"");
        assert_eq!(print_expr(&Expr::str("\"")), "\"\\\"\"");
        assert_eq!(print_expr(&Expr::str("\\\"")), "\"\\\\\\\"\"");
        assert_eq!(print_expr(&Expr::str("a\\\"b")), "\"a\\\\\\\"b\"");
    }

    #[test]
    fn exact_object_and_array_creation() {
        assert_eq!(
            print_expr(&Expr::new_object(
                "javax.crypto.spec.GCMParameterSpec",
                vec![]
            )),
            "new GCMParameterSpec()"
        );
        assert_eq!(
            print_expr(&Expr::new_object(
                "javax.crypto.spec.PBEKeySpec",
                vec![
                    Expr::var("pwd"),
                    Expr::var("salt"),
                    Expr::int(10000),
                    Expr::int(128)
                ]
            )),
            "new PBEKeySpec(pwd, salt, 10000, 128)"
        );
        assert_eq!(
            print_expr(&Expr::new_array(JavaType::Byte, Expr::int(32))),
            "new byte[32]"
        );
        assert_eq!(
            print_expr(&Expr::new_array(
                JavaType::class("java.lang.String"),
                Expr::var("n")
            )),
            "new String[n]"
        );
        assert_eq!(
            print_expr(&Expr::ArrayLit {
                elem: JavaType::Byte,
                elems: vec![Expr::int(15), Expr::int(-12), Expr::int(0)]
            }),
            "new byte[] {15, -12, 0}"
        );
        assert_eq!(
            print_expr(&Expr::ArrayLit {
                elem: JavaType::Byte,
                elems: vec![]
            }),
            "new byte[] {}"
        );
        assert_eq!(
            print_expr(&Expr::ArrayLit {
                elem: JavaType::byte_array(),
                elems: vec![Expr::var("a"), Expr::null()]
            }),
            "new byte[][] {a, null}"
        );
    }

    #[test]
    fn exact_calls_casts_and_fields() {
        assert_eq!(
            print_expr(&Expr::static_call(
                "javax.crypto.Cipher",
                "getInstance",
                vec![Expr::str("AES/CBC/PKCS5Padding")]
            )),
            "Cipher.getInstance(\"AES/CBC/PKCS5Padding\")"
        );
        assert_eq!(
            print_expr(&Expr::call(Expr::var("md"), "digest", vec![])),
            "md.digest()"
        );
        // Chained receivers print left to right.
        let chained = Expr::call(
            Expr::call(
                Expr::static_call(
                    "java.security.KeyPairGenerator",
                    "getInstance",
                    vec![Expr::str("RSA")],
                ),
                "generateKeyPair",
                vec![],
            ),
            "getPublic",
            vec![],
        );
        assert_eq!(
            print_expr(&chained),
            "KeyPairGenerator.getInstance(\"RSA\").generateKeyPair().getPublic()"
        );
        assert_eq!(
            print_expr(&Expr::Cast {
                ty: JavaType::class("javax.crypto.SecretKey"),
                expr: Box::new(Expr::call(
                    Expr::var("cipher"),
                    "unwrap",
                    vec![
                        Expr::var("wrapped"),
                        Expr::str("AES"),
                        Expr::StaticField {
                            class: "javax.crypto.Cipher".into(),
                            field: "SECRET_KEY".into()
                        }
                    ]
                ))
            }),
            "(SecretKey) cipher.unwrap(wrapped, \"AES\", Cipher.SECRET_KEY)"
        );
        assert_eq!(
            print_expr(&Expr::Cast {
                ty: JavaType::byte_array(),
                expr: Box::new(Expr::null())
            }),
            "(byte[]) null"
        );
        assert_eq!(
            print_expr(&Expr::StaticField {
                class: "Local".into(),
                field: "X".into()
            }),
            "Local.X"
        );
    }

    #[test]
    fn exact_binary_operators() {
        let bin = |op, lhs, rhs| Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        assert_eq!(
            print_expr(&bin(BinOp::Eq, Expr::var("a"), Expr::var("b"))),
            "a == b"
        );
        assert_eq!(
            print_expr(&bin(BinOp::Ne, Expr::var("key"), Expr::null())),
            "key != null"
        );
        assert_eq!(
            print_expr(&bin(BinOp::Add, Expr::str("n="), Expr::int(1))),
            "\"n=\" + 1"
        );
        assert_eq!(
            print_expr(&bin(BinOp::Lt, Expr::var("i"), Expr::int(10))),
            "i < 10"
        );
        // No parentheses are added around nested operands.
        assert_eq!(
            print_expr(&bin(
                BinOp::Lt,
                bin(BinOp::Add, Expr::var("i"), Expr::int(1)),
                Expr::var("n")
            )),
            "i + 1 < n"
        );
    }

    #[test]
    fn exact_simple_statements() {
        assert_eq!(
            stmt_at(
                &Stmt::decl(JavaType::class("javax.crypto.SecretKey"), "k"),
                1
            ),
            "    SecretKey k;\n"
        );
        assert_eq!(
            stmt_at(
                &Stmt::decl_init(JavaType::char_array(), "pwd", Expr::null()),
                2
            ),
            "        char[] pwd = null;\n"
        );
        assert_eq!(
            stmt_at(&Stmt::assign("out", Expr::var("tmp")), 2),
            "        out = tmp;\n"
        );
        assert_eq!(
            stmt_at(
                &Stmt::Expr(Expr::call(Expr::var("spec"), "clearPassword", vec![])),
                0
            ),
            "spec.clearPassword();\n"
        );
        assert_eq!(stmt_at(&Stmt::Return(None), 1), "    return;\n");
        assert_eq!(
            stmt_at(&Stmt::Return(Some(Expr::var("key"))), 2),
            "        return key;\n"
        );
        assert_eq!(
            stmt_at(&Stmt::Comment("note: \"quoted\"".into()), 2),
            "        // note: \"quoted\"\n"
        );
    }

    #[test]
    fn exact_if_else() {
        let cond = Expr::Bin {
            op: BinOp::Eq,
            lhs: Box::new(Expr::var("ok")),
            rhs: Box::new(Expr::bool(true)),
        };
        let only_then = Stmt::If {
            cond: cond.clone(),
            then_body: vec![Stmt::Return(None)],
            else_body: vec![],
        };
        assert_eq!(
            stmt_at(&only_then, 1),
            "    if (ok == true) {\n        return;\n    }\n"
        );
        let nested = Stmt::If {
            cond,
            then_body: vec![Stmt::Return(Some(Expr::int(1)))],
            else_body: vec![only_then.clone(), Stmt::Return(Some(Expr::int(0)))],
        };
        assert_eq!(
            stmt_at(&nested, 2),
            "        if (ok == true) {\n\
             \x20           return 1;\n\
             \x20       } else {\n\
             \x20           if (ok == true) {\n\
             \x20               return;\n\
             \x20           }\n\
             \x20           return 0;\n\
             \x20       }\n"
        );
        let empty = Stmt::If {
            cond: Expr::bool(false),
            then_body: vec![],
            else_body: vec![],
        };
        assert_eq!(stmt_at(&empty, 0), "if (false) {\n}\n");
    }

    #[test]
    fn exact_method_headers_and_unit() {
        let stat = MethodDecl::new("encrypt", JavaType::byte_array())
            .param(JavaType::byte_array(), "data")
            .param(JavaType::class("javax.crypto.SecretKey"), "key")
            .param(JavaType::Int, "mode")
            .statement(Stmt::Return(Some(Expr::var("data"))))
            .set_static();
        let inst = MethodDecl::new("wrap", JavaType::Void)
            .param(JavaType::class("java.security.PublicKey"), "pub")
            .param(JavaType::char_array(), "pwd");
        let none = MethodDecl::new("none", JavaType::Long);
        let mut class = ClassDecl::new("Tool")
            .method(stat)
            .method(inst)
            .method(none);
        class.fields.push(FieldDecl {
            ty: JavaType::Int,
            name: "rounds".into(),
            init: Some(Expr::int(3)),
        });
        class.fields.push(FieldDecl {
            ty: JavaType::class("java.lang.String"),
            name: "name".into(),
            init: None,
        });
        let unit = CompilationUnit::new("a.b")
            .class(class)
            .class(ClassDecl::new("Empty"));
        assert_eq!(
            print_unit(&unit),
            "package a.b;\n\
             \n\
             public class Tool {\n\
             \x20   private int rounds = 3;\n\
             \x20   private String name;\n\
             \n\
             \x20   public static byte[] encrypt(byte[] data, SecretKey key, int mode) {\n\
             \x20       return data;\n\
             \x20   }\n\
             \n\
             \x20   public void wrap(PublicKey pub, char[] pwd) {\n\
             \x20   }\n\
             \n\
             \x20   public long none() {\n\
             \x20   }\n\
             }\n\
             \n\
             public class Empty {\n\
             }\n"
        );
        let no_package = CompilationUnit::new("").class(ClassDecl::new("Empty"));
        assert_eq!(print_unit(&no_package), "public class Empty {\n}\n");
    }

    #[test]
    fn comments_print_as_line_comments() {
        let mut out = String::new();
        print_stmt(
            &mut out,
            &Stmt::Comment("call with a real password".into()),
            0,
        );
        assert_eq!(out, "// call with a real password\n");
    }
}
