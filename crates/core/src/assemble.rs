//! Step 5 of the pipeline: assembling Java code (paper Fig. 6, step 5).
//!
//! The assembler walks the selected path of each rule in chain order and
//! emits the corresponding Java statements into the template method:
//! constructor calls, static factory calls and instance calls, with every
//! parameter filled in by the [`crate::resolve`] rules. Predicate-
//! invalidating calls (e.g. `clearPassword()`) are deferred to the end of
//! the method, the nominated return object receives the final value, and
//! unresolvable parameters are hoisted into the wrapper signature.
//! Finally, [`template_usage`] produces the showcase method the paper
//! generates alongside every template.

use std::collections::{HashMap, HashSet};

use crysl::ast::{Literal, MethodEvent, ParamPattern, Rule};
use javamodel::ast::{ClassDecl, Expr, JavaType, MethodDecl, Param, Stmt};
use javamodel::{ClassLookup, TypeTable};

use crate::collect::CollectedRule;
use crate::error::GenError;
use crate::link::{Carrier, Link};
use crate::pathsel::{InstanceSource, SelectedPath};
use crate::resolve::{java_type_of, resolve_var, Resolution};
use crate::template::TemplateMethod;

/// The code generated for one template method.
#[derive(Debug, Clone)]
pub struct AssembledMethod {
    /// The complete wrapper method (glue + generated + deferred + glue).
    pub method: MethodDecl,
    /// Parameters hoisted into the signature by the fallback rule.
    pub hoisted_params: Vec<Param>,
}

/// Assembles the generated block for `method` from the selected paths.
///
/// # Errors
///
/// Propagates [`GenError`] for producer values the paths failed to
/// materialize (a pipeline invariant violation surfaced as
/// [`GenError::UnresolvedInstance`] / [`GenError::UnresolvedParameter`]).
pub fn assemble(
    method: &TemplateMethod,
    rules: &[CollectedRule<'_>],
    links: &[Link],
    paths: &[SelectedPath],
    return_object: Option<&str>,
    table: &TypeTable,
) -> Result<AssembledMethod, GenError> {
    // Every path label emits at most one statement (generated or
    // deferred), plus the return assignment: sizing the body and the
    // name tables for that bound up front means none of them regrows.
    let emitted = paths.iter().map(|p| p.labels.len()).sum::<usize>() + 1;
    let mut body =
        Vec::with_capacity(method.pre_statements.len() + emitted + method.post_statements.len());
    body.extend_from_slice(&method.pre_statements);
    let mut taken = HashSet::with_capacity(method.params.len() + body.len() + emitted);
    taken.extend(method.params.iter().map(|p| p.name.clone()));
    taken.extend(declared_locals(&method.pre_statements));
    let bindings: usize = rules.iter().map(|cr| cr.bindings.len()).sum();
    let mut asm = Assembler {
        rules,
        links,
        table,
        taken,
        values: HashMap::with_capacity(bindings + rules.len() + emitted),
        stmts: body,
        deferred: Vec::new(),
        hoisted: Vec::new(),
    };

    // Template bindings register their variables as available values.
    for (idx, cr) in rules.iter().enumerate() {
        for b in &cr.bindings {
            asm.values
                .insert((idx, Slot::Var(&b.rule_var)), b.template_var.clone());
        }
    }

    for (idx, path) in paths.iter().enumerate() {
        asm.emit_rule(idx, path)?;
    }

    // Assign the final value to the nominated return object.
    if let Some(ret) = return_object {
        if let Some(last) = paths.len().checked_sub(1) {
            let ret_ty = method.var_type(ret);
            let value = asm.final_value(last, &paths[last], ret_ty)?;
            asm.stmts.push(Stmt::assign(ret, Expr::var(value)));
        }
    }

    let mut body = asm.stmts;
    body.append(&mut asm.deferred);
    body.extend_from_slice(&method.post_statements);

    let mut m = MethodDecl::new(method.name.clone(), method.return_type.clone());
    m.params = method.params.clone();
    m.params.extend(asm.hoisted.iter().cloned());
    m.body = body;
    Ok(AssembledMethod {
        method: m,
        hoisted_params: asm.hoisted,
    })
}

fn declared_locals(stmts: &[Stmt]) -> impl Iterator<Item = String> + '_ {
    stmts.iter().filter_map(|s| match s {
        Stmt::Decl { name, .. } => Some(name.clone()),
        _ => None,
    })
}

/// A borrowed [`Carrier`]: the assembler keys its values by these, so a
/// lookup never builds an owned carrier just to query the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot<'a> {
    This,
    Var(&'a str),
}

impl<'a> From<&'a Carrier> for Slot<'a> {
    fn from(c: &'a Carrier) -> Self {
        match c {
            Carrier::This => Slot::This,
            Carrier::Var(v) => Slot::Var(v),
        }
    }
}

struct Assembler<'a> {
    rules: &'a [CollectedRule<'a>],
    links: &'a [Link],
    table: &'a TypeTable,
    taken: HashSet<String>,
    /// (rule index, carrier) → Java local/parameter name holding the value.
    values: HashMap<(usize, Slot<'a>), String>,
    /// The method body so far: the template's leading glue, then the
    /// generated statements.
    stmts: Vec<Stmt>,
    deferred: Vec<Stmt>,
    hoisted: Vec<Param>,
}

impl<'a> Assembler<'a> {
    fn fresh_name(&mut self, base: &str) -> String {
        let mut name = base.to_owned();
        let mut n = 1;
        while self.taken.contains(&name) {
            n += 1;
            name = format!("{base}{n}");
        }
        self.taken.insert(name.clone());
        name
    }

    fn emit_rule(&mut self, idx: usize, path: &'a SelectedPath) -> Result<(), GenError> {
        let rule = self.rules[idx].rule;
        let class_name = rule.class_name.as_str();
        let simple = rule.class_name.simple_name();

        // Hoisted parameters become wrapper parameters up front so their
        // names are available to argument emission.
        for (_, var) in &path.hoisted {
            if self.values.contains_key(&(idx, Slot::Var(var))) {
                continue;
            }
            let ty = rule
                .object(var)
                .map(|o| java_type_of(&o.ty))
                .unwrap_or(JavaType::class("java.lang.Object"));
            let name = self.fresh_name(var);
            self.hoisted.push(Param {
                ty,
                name: name.clone(),
            });
            self.values.insert((idx, Slot::Var(var)), name);
        }

        // The instance: linked instances exist already, constructed ones
        // get their name now and their declaration at the producing event.
        let instance_name = match &path.instance {
            InstanceSource::Linked {
                from_rule,
                from_carrier,
            } => self
                .values
                .get(&(*from_rule, Slot::from(from_carrier)))
                .cloned()
                .ok_or(GenError::UnresolvedInstance {
                    rule: class_name.to_owned(),
                })?,
            InstanceSource::Constructed | InstanceSource::Factory => {
                self.fresh_name(&lower_camel(simple))
            }
        };
        self.values.insert((idx, Slot::This), instance_name.clone());

        let invalidating = invalidating_events(rule, &path.labels);
        let mut own_returns: Vec<&str> = Vec::new();

        for label in &path.labels {
            let Some(event) = rule.method_event(label) else {
                continue;
            };
            let args = self.arg_exprs(idx, event, &own_returns)?;
            let stmt = self.emit_event(idx, event, args, &instance_name, simple, class_name)?;
            if invalidating.contains(label.as_str()) {
                self.deferred.push(stmt);
            } else {
                self.stmts.push(stmt);
            }
            if let Some(rv) = &event.return_var {
                own_returns.push(rv);
            }
        }
        Ok(())
    }

    fn arg_exprs(
        &mut self,
        idx: usize,
        event: &MethodEvent,
        own_returns: &[&str],
    ) -> Result<Vec<Expr>, GenError> {
        let mut args = Vec::with_capacity(event.params.len());
        for (i, p) in event.params.iter().enumerate() {
            let expr = match p {
                ParamPattern::This => Expr::var(
                    self.values
                        .get(&(idx, Slot::This))
                        .cloned()
                        .unwrap_or_else(|| "this".to_owned()),
                ),
                ParamPattern::Wildcard => {
                    // A wildcard the path selector let through: hoist it.
                    let name = self.fresh_name(&format!("arg{i}"));
                    self.hoisted.push(Param {
                        ty: JavaType::class("java.lang.Object"),
                        name: name.clone(),
                    });
                    Expr::var(name)
                }
                ParamPattern::Var(v) => self.var_expr(idx, v, own_returns)?,
            };
            args.push(expr);
        }
        Ok(args)
    }

    fn var_expr(&mut self, idx: usize, var: &str, own_returns: &[&str]) -> Result<Expr, GenError> {
        // Anything already materialized under this rule wins (covers
        // template bindings, hoisted parameters, and own returns).
        if let Some(name) = self.values.get(&(idx, Slot::Var(var))) {
            return Ok(Expr::var(name.clone()));
        }
        match resolve_var(idx, var, own_returns, self.rules, self.links, self.table) {
            Resolution::TemplateVar(tv) => Ok(Expr::var(tv)),
            Resolution::Linked {
                from_rule,
                from_carrier,
            } => self
                .values
                .get(&(from_rule, Slot::from(&from_carrier)))
                .map(|n| Expr::var(n.clone()))
                .ok_or_else(|| GenError::UnresolvedParameter {
                    rule: self.rules[idx].rule.class_name.to_string(),
                    variable: var.to_owned(),
                }),
            Resolution::OwnReturn => Err(GenError::UnresolvedParameter {
                rule: self.rules[idx].rule.class_name.to_string(),
                variable: var.to_owned(),
            }),
            Resolution::This => Ok(Expr::var(
                self.values
                    .get(&(idx, Slot::This))
                    .cloned()
                    .unwrap_or_else(|| "this".to_owned()),
            )),
            Resolution::Value(lit) => Ok(literal_expr(&lit)),
            Resolution::Hoist => Err(GenError::UnresolvedParameter {
                rule: self.rules[idx].rule.class_name.to_string(),
                variable: var.to_owned(),
            }),
        }
    }

    fn emit_event(
        &mut self,
        idx: usize,
        event: &'a MethodEvent,
        args: Vec<Expr>,
        instance_name: &str,
        simple: &str,
        class_name: &str,
    ) -> Result<Stmt, GenError> {
        let class_def = self
            .table
            .class(class_name)
            .ok_or_else(|| GenError::UnknownClass(class_name.to_owned()))?;
        let is_static = class_def
            .methods
            .iter()
            .any(|m| m.name == event.method_name && m.is_static);

        if event.is_constructor_of(simple) {
            let expr = Expr::new_object(class_name, args);
            return Ok(Stmt::decl_init(
                JavaType::class(class_name),
                instance_name,
                expr,
            ));
        }
        if is_static {
            let expr = Expr::static_call(class_name, event.method_name.clone(), args);
            // A static factory returning the class itself materializes the
            // instance; other static calls bind their return variable.
            let ret = class_def
                .methods
                .iter()
                .find(|m| m.name == event.method_name && m.is_static)
                .map_or(&JavaType::Void, |m| &m.ret);
            if matches!(ret, JavaType::Class(n) if n == class_name) {
                return Ok(Stmt::decl_init(
                    JavaType::class(class_name),
                    instance_name,
                    expr,
                ));
            }
            return Ok(self.bind_return(idx, event, expr, Some(ret)));
        }
        let ret = class_def
            .methods
            .iter()
            .find(|m| m.name == event.method_name && !m.is_static)
            .map(|m| &m.ret);
        let expr = Expr::call(Expr::var(instance_name), event.method_name.clone(), args);
        Ok(self.bind_return(idx, event, expr, ret))
    }

    fn bind_return(
        &mut self,
        idx: usize,
        event: &'a MethodEvent,
        expr: Expr,
        method_ret: Option<&JavaType>,
    ) -> Stmt {
        match &event.return_var {
            Some(rv) => {
                let ty = self.rules[idx]
                    .rule
                    .object(rv)
                    .map(|o| java_type_of(&o.ty))
                    .unwrap_or(JavaType::class("java.lang.Object"));
                // Insert a downcast when the rule declares a more specific
                // type than the API returns (`(SecretKey) cipher.unwrap(…)`).
                let expr = match method_ret {
                    Some(rt)
                        if *rt != ty && self.table.is_assignable(&ty, rt) && ty.is_reference() =>
                    {
                        Expr::Cast {
                            ty: ty.clone(),
                            expr: Box::new(expr),
                        }
                    }
                    _ => expr,
                };
                let name = self.fresh_name(rv);
                self.values.insert((idx, Slot::Var(rv)), name.clone());
                Stmt::decl_init(ty, name, expr)
            }
            None => Stmt::Expr(expr),
        }
    }

    /// The value the last rule of the chain produces: the return value of
    /// the last value-producing event, or the rule's instance (paper: "the
    /// last method of that class that needs to be called"). When the
    /// template declares a type for the return object, only candidates
    /// assignable to it qualify — so a `KeyPair`-typed return object
    /// receives the pair itself, not the last accessor's result.
    fn final_value(
        &self,
        idx: usize,
        path: &SelectedPath,
        expected: Option<&JavaType>,
    ) -> Result<String, GenError> {
        let rule = self.rules[idx].rule;
        let invalidating = invalidating_events(rule, &path.labels);
        let fits = |ty: &JavaType| match expected {
            Some(e) => self.table.is_assignable(ty, e),
            None => true,
        };
        for label in path.labels.iter().rev() {
            if invalidating.contains(label.as_str()) {
                continue;
            }
            if let Some(event) = rule.method_event(label) {
                if let Some(rv) = &event.return_var {
                    let rv_ty = rule
                        .object(rv)
                        .map(|o| java_type_of(&o.ty))
                        .unwrap_or(JavaType::class("java.lang.Object"));
                    if !fits(&rv_ty) {
                        continue;
                    }
                    if let Some(name) = self.values.get(&(idx, Slot::Var(rv))) {
                        return Ok(name.clone());
                    }
                }
            }
        }
        let instance_ty = JavaType::class(rule.class_name.as_str());
        if fits(&instance_ty) {
            if let Some(name) = self.values.get(&(idx, Slot::This)) {
                return Ok(name.clone());
            }
        }
        Err(GenError::UnresolvedInstance {
            rule: rule.class_name.to_string(),
        })
    }
}

/// Events whose execution would invalidate a predicate the rule ensures:
/// every event strictly after the `after` anchor of an ensured predicate
/// that the rule also NEGATES. The generator defers them to the end of the
/// method (paper: `clearPassword()` runs right before `return`).
pub fn invalidating_events<'r>(rule: &'r Rule, path: &[String]) -> HashSet<&'r str> {
    let mut out = HashSet::new();
    for ens in &rule.ensures {
        let negated = rule.negates.iter().any(|n| n.name == ens.predicate.name);
        if !negated {
            continue;
        }
        let Some(after) = &ens.after else { continue };
        let anchors: Vec<&str> = rule
            .resolve_label(after)
            .iter()
            .map(|m| m.label.as_str())
            .collect();
        let Some(pos) = path.iter().position(|l| anchors.contains(&l.as_str())) else {
            continue;
        };
        for label in &path[pos + 1..] {
            if let Some(ev) = rule.method_event(label) {
                out.insert(ev.label.as_str());
            }
        }
    }
    out
}

fn literal_expr(lit: &Literal) -> Expr {
    match lit {
        Literal::Int(i) => Expr::int(*i),
        Literal::Str(s) => Expr::str(s.clone()),
        Literal::Bool(b) => Expr::bool(*b),
    }
}

fn lower_camel(simple: &str) -> String {
    let mut chars = simple.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Generates the `templateUsage` showcase class (paper §3.3, end): a new
/// class with one method that instantiates the template class, calls every
/// chain-bearing method, matches arguments to previous return values by
/// type, and pushes up parameters that cannot be matched.
pub fn template_usage(
    template_class: &ClassDecl,
    chain_methods: &[String],
    table: &TypeTable,
) -> ClassDecl {
    let mut usage = MethodDecl::new("templateUsage", JavaType::Void);
    usage.body.push(Stmt::Comment(
        "generated by CogniCryptGEN: shows how to use the generated class".to_owned(),
    ));
    let tc_var = lower_camel(&template_class.name);
    usage.body.push(Stmt::decl_init(
        JavaType::class(template_class.name.clone()),
        tc_var.clone(),
        Expr::new_object(template_class.name.clone(), vec![]),
    ));

    // Values available for argument matching: (name, type), latest last.
    let mut available: Vec<(String, JavaType)> = Vec::new();
    let mut taken: HashSet<String> = HashSet::from([tc_var.clone()]);
    let mut result_counter = 0usize;

    for mname in chain_methods {
        let Some(m) = template_class.find_method(mname) else {
            continue;
        };
        let mut args = Vec::new();
        for p in &m.params {
            // Most recent assignable value wins; otherwise hoist.
            let found = available
                .iter()
                .rev()
                .find(|(_, ty)| table.is_assignable(ty, &p.ty))
                .map(|(n, _)| n.clone());
            match found {
                Some(n) => args.push(Expr::var(n)),
                None => {
                    let mut pname = p.name.clone();
                    let mut n = 1;
                    while taken.contains(&pname) {
                        n += 1;
                        pname = format!("{}{n}", p.name);
                    }
                    taken.insert(pname.clone());
                    usage.params.push(Param {
                        ty: p.ty.clone(),
                        name: pname.clone(),
                    });
                    args.push(Expr::var(pname));
                }
            }
        }
        let call = Expr::call(Expr::var(tc_var.clone()), m.name.clone(), args);
        if m.return_type == JavaType::Void {
            usage.body.push(Stmt::Expr(call));
        } else {
            result_counter += 1;
            let rname = format!("result{result_counter}");
            taken.insert(rname.clone());
            usage
                .body
                .push(Stmt::decl_init(m.return_type.clone(), rname.clone(), call));
            available.push((rname, m.return_type.clone()));
        }
    }

    ClassDecl::new("OutputClass").method(usage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crysl::parse_rule;

    #[test]
    fn lower_camel_matches_paper_names() {
        assert_eq!(lower_camel("PBEKeySpec"), "pBEKeySpec");
        assert_eq!(lower_camel("SecureRandom"), "secureRandom");
        assert_eq!(lower_camel("Cipher"), "cipher");
    }

    #[test]
    fn invalidating_events_defer_clear_password() {
        let rule = parse_rule(
            "SPEC javax.crypto.spec.PBEKeySpec\nOBJECTS char[] password;\nEVENTS c1: PBEKeySpec(password); cP: clearPassword();\nORDER c1, cP\nENSURES speccedKey[this] after c1;\nNEGATES speccedKey[this];",
        )
        .unwrap();
        let inv = invalidating_events(&rule, &["c1".to_owned(), "cP".to_owned()]);
        assert!(inv.contains("cP"));
        assert!(!inv.contains("c1"));
    }

    #[test]
    fn no_negates_means_nothing_deferred() {
        let rule =
            parse_rule("SPEC a.X\nEVENTS a: f(); b: g();\nORDER a, b\nENSURES p[this] after a;")
                .unwrap();
        assert!(invalidating_events(&rule, &["a".to_owned(), "b".to_owned()]).is_empty());
    }
}
