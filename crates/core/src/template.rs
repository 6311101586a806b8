//! Code templates and the fluent configuration API.
//!
//! A template is a regular (modelled-)Java class containing glue code and,
//! per method, at most one call chain on the `CrySLCodeGenerator` fluent
//! API (paper §3.2). The chain names the CrySL rules making up the use
//! case, binds template variables to rule variables with `addParameter`,
//! and nominates a return object with `addReturnObject`.

use javamodel::ast::{JavaType, Param, Stmt};

/// A binding created by `addParameter(templateVar, "ruleVar")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The template-side variable (method parameter or glue-code local).
    pub template_var: String,
    /// The CrySL OBJECTS variable it is bound to.
    pub rule_var: String,
}

/// One `considerCrySLRule` entry of a chain, with its bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    /// The class name passed to `considerCrySLRule` (fully qualified or
    /// unambiguous simple name).
    pub rule: String,
    /// Parameter bindings attached to this entry.
    pub bindings: Vec<Binding>,
}

/// A complete fluent-API call chain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GeneratorChain {
    /// Rules in `considerCrySLRule` order — also the generation order.
    pub entries: Vec<ChainEntry>,
    /// Template variable receiving the final generated value, if any.
    pub return_object: Option<String>,
}

/// Builder mirroring the paper's fluent API
/// (`CrySLCodeGenerator.getInstance().considerCrySLRule(..)...`).
///
/// # Example
///
/// ```
/// use cognicrypt_core::template::CrySlCodeGenerator;
///
/// let chain = CrySlCodeGenerator::get_instance()
///     .consider_crysl_rule("java.security.SecureRandom")
///     .add_parameter("salt", "out")
///     .consider_crysl_rule("javax.crypto.spec.PBEKeySpec")
///     .add_parameter("pwd", "password")
///     .add_return_object("encryptionKey")
///     .build();
/// assert_eq!(chain.entries.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CrySlCodeGenerator {
    chain: GeneratorChain,
}

impl CrySlCodeGenerator {
    /// Starts a new chain (`CrySLCodeGenerator.getInstance()`).
    pub fn get_instance() -> Self {
        CrySlCodeGenerator::default()
    }

    /// Includes a CrySL rule in the generation.
    #[must_use]
    pub fn consider_crysl_rule(mut self, class_name: impl Into<String>) -> Self {
        self.chain.entries.push(ChainEntry {
            rule: class_name.into(),
            bindings: Vec::new(),
        });
        self
    }

    /// Binds a template variable to a variable of the most recently
    /// considered rule.
    ///
    /// # Panics
    ///
    /// Panics if called before any `consider_crysl_rule` — the fluent API
    /// has no rule to attach the binding to (same contract as the paper's
    /// Java API, where the chain grammar makes this unrepresentable).
    #[must_use]
    pub fn add_parameter(
        mut self,
        template_var: impl Into<String>,
        rule_var: impl Into<String>,
    ) -> Self {
        let entry = self
            .chain
            .entries
            .last_mut()
            .expect("addParameter must follow considerCrySLRule");
        entry.bindings.push(Binding {
            template_var: template_var.into(),
            rule_var: rule_var.into(),
        });
        self
    }

    /// Nominates the template variable that receives the final value.
    #[must_use]
    pub fn add_return_object(mut self, template_var: impl Into<String>) -> Self {
        self.chain.return_object = Some(template_var.into());
        self
    }

    /// Finishes the chain (`generate()` in the Java API; the actual
    /// generation happens when the template is processed).
    pub fn build(self) -> GeneratorChain {
        self.chain
    }
}

/// A template method: wrapper signature, glue code before and after the
/// chain, and the chain itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateMethod {
    /// Method name.
    pub name: String,
    /// Return type of the wrapper.
    pub return_type: JavaType,
    /// Wrapper parameters.
    pub params: Vec<Param>,
    /// Glue statements emitted before the generated block.
    pub pre_statements: Vec<Stmt>,
    /// The fluent-API chain, if this method generates code. Methods
    /// without a chain are plain helpers.
    pub chain: Option<GeneratorChain>,
    /// Glue statements emitted after the generated block.
    pub post_statements: Vec<Stmt>,
}

impl TemplateMethod {
    /// Creates an empty template method.
    pub fn new(name: impl Into<String>, return_type: JavaType) -> Self {
        TemplateMethod {
            name: name.into(),
            return_type,
            params: Vec::new(),
            pre_statements: Vec::new(),
            chain: None,
            post_statements: Vec::new(),
        }
    }

    /// Adds a wrapper parameter (builder style).
    #[must_use]
    pub fn param(mut self, ty: JavaType, name: impl Into<String>) -> Self {
        self.params.push(Param {
            ty,
            name: name.into(),
        });
        self
    }

    /// Appends a glue statement before the generated block.
    #[must_use]
    pub fn pre(mut self, stmt: Stmt) -> Self {
        self.pre_statements.push(stmt);
        self
    }

    /// Sets the fluent-API chain.
    #[must_use]
    pub fn chain(mut self, chain: GeneratorChain) -> Self {
        self.chain = Some(chain);
        self
    }

    /// Appends a glue statement after the generated block.
    #[must_use]
    pub fn post(mut self, stmt: Stmt) -> Self {
        self.post_statements.push(stmt);
        self
    }

    /// The declared type of a template variable visible to the chain:
    /// a method parameter or a glue-code local declared in
    /// `pre_statements`.
    pub fn var_type(&self, name: &str) -> Option<&JavaType> {
        if let Some(p) = self.params.iter().find(|p| p.name == name) {
            return Some(&p.ty);
        }
        self.pre_statements.iter().find_map(|s| match s {
            Stmt::Decl { ty, name: n, .. } if n == name => Some(ty),
            _ => None,
        })
    }
}

/// A code template: the class CogniCryptGEN fills in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Package of the generated class.
    pub package: String,
    /// Name of the generated class.
    pub class_name: String,
    /// Template methods.
    pub methods: Vec<TemplateMethod>,
}

impl Template {
    /// Creates an empty template.
    pub fn new(package: impl Into<String>, class_name: impl Into<String>) -> Self {
        Template {
            package: package.into(),
            class_name: class_name.into(),
            methods: Vec::new(),
        }
    }

    /// Adds a method (builder style).
    #[must_use]
    pub fn method(mut self, m: TemplateMethod) -> Self {
        self.methods.push(m);
        self
    }
}

/// Renders a template as the Java source a crypto expert would write —
/// the artefact whose size Table 2 (RQ4) measures. Glue statements print
/// through the Java pretty-printer; the chain prints as the fluent-API
/// call of the paper's Figure 4.
pub fn render_java(template: &Template) -> String {
    use javamodel::printer::{print_stmt_to, write_method_header};
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "package {};", template.package);
    let _ = writeln!(out);
    let _ = writeln!(out, "public class {} {{", template.class_name);
    for (i, m) in template.methods.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(out);
        }
        write_method_header(&mut out, false, &m.return_type, &m.name, &m.params);
        for s in &m.pre_statements {
            print_stmt_to(&mut out, s, 2);
        }
        if let Some(chain) = &m.chain {
            let _ = writeln!(out, "        CrySLCodeGenerator.getInstance().");
            for (i, e) in chain.entries.iter().enumerate() {
                let _ = write!(out, "            considerCrySLRule(\"{}\")", e.rule);
                for b in &e.bindings {
                    let _ = write!(
                        out,
                        ".\n            addParameter({}, \"{}\")",
                        b.template_var, b.rule_var
                    );
                }
                let terminal = i == chain.entries.len() - 1;
                if terminal {
                    if let Some(r) = &chain.return_object {
                        let _ = write!(out, ".\n            addReturnObject({r})");
                    }
                    let _ = writeln!(out, ".generate();");
                } else {
                    let _ = writeln!(out, ".");
                }
            }
        }
        for s in &m.post_statements {
            print_stmt_to(&mut out, s, 2);
        }
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use javamodel::ast::Expr;

    #[test]
    fn fluent_chain_records_order_and_bindings() {
        let chain = CrySlCodeGenerator::get_instance()
            .consider_crysl_rule("A")
            .add_parameter("x", "in")
            .consider_crysl_rule("B")
            .add_return_object("out")
            .build();
        assert_eq!(chain.entries[0].rule, "A");
        assert_eq!(chain.entries[0].bindings[0].template_var, "x");
        assert!(chain.entries[1].bindings.is_empty());
        assert_eq!(chain.return_object.as_deref(), Some("out"));
    }

    #[test]
    #[should_panic(expected = "considerCrySLRule")]
    fn add_parameter_requires_a_rule() {
        let _ = CrySlCodeGenerator::get_instance().add_parameter("x", "y");
    }

    #[test]
    fn render_java_prints_the_paper_figure_4_shape() {
        use javamodel::ast::JavaType;
        let chain = CrySlCodeGenerator::get_instance()
            .consider_crysl_rule("java.security.SecureRandom")
            .add_parameter("salt", "out")
            .consider_crysl_rule("javax.crypto.spec.SecretKeySpec")
            .add_return_object("encryptionKey")
            .build();
        let method = TemplateMethod::new("generateKey", JavaType::class("javax.crypto.SecretKey"))
            .param(JavaType::char_array(), "pwd")
            .pre(Stmt::decl_init(
                JavaType::byte_array(),
                "salt",
                Expr::new_array(javamodel::ast::JavaType::Byte, Expr::int(32)),
            ))
            .chain(chain)
            .post(Stmt::Return(Some(Expr::var("encryptionKey"))));
        let t = Template::new("de.crypto", "TemplateClass").method(method);
        let java = render_java(&t);
        assert!(java.contains("public class TemplateClass {"), "{java}");
        assert!(
            java.contains("public SecretKey generateKey(char[] pwd) {"),
            "{java}"
        );
        assert!(java.contains("CrySLCodeGenerator.getInstance()."), "{java}");
        assert!(
            java.contains("considerCrySLRule(\"java.security.SecureRandom\")"),
            "{java}"
        );
        assert!(java.contains("addParameter(salt, \"out\")"), "{java}");
        assert!(
            java.contains("addReturnObject(encryptionKey).generate();"),
            "{java}"
        );
        assert!(java.contains("return encryptionKey;"), "{java}");
    }

    #[test]
    fn render_java_handles_helper_methods_without_chains() {
        use javamodel::ast::JavaType;
        let t = Template::new("p", "C").method(
            TemplateMethod::new("helper", JavaType::Int).post(Stmt::Return(Some(Expr::int(42)))),
        );
        let java = render_java(&t);
        assert!(java.contains("public int helper() {"));
        assert!(java.contains("return 42;"));
        assert!(!java.contains("CrySLCodeGenerator"));
    }

    #[test]
    fn var_type_finds_params_and_locals() {
        let m = TemplateMethod::new("go", JavaType::Void)
            .param(JavaType::char_array(), "pwd")
            .pre(Stmt::decl_init(
                JavaType::byte_array(),
                "salt",
                Expr::new_array(JavaType::Byte, Expr::int(32)),
            ));
        assert_eq!(m.var_type("pwd"), Some(&JavaType::char_array()));
        assert_eq!(m.var_type("salt"), Some(&JavaType::byte_array()));
        assert_eq!(m.var_type("ghost"), None);
    }
}
