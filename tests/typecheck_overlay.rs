//! The generator type-checks each unit against the borrowed JCA table
//! plus a one-class overlay for the template class. That must answer
//! exactly as the table copy with the template class added would: the
//! same `Result`, with the same error text, for every catalogue unit and
//! for ill-typed units that lean on the template class.

use cognicryptgen::core::generate;
use cognicryptgen::javamodel::ast::{ClassDecl, CompilationUnit, Expr, JavaType, MethodDecl, Stmt};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::javamodel::typecheck::{check_unit, check_unit_in};
use cognicryptgen::javamodel::typetable::{ClassDef, TableOverlay};
use cognicryptgen::javamodel::{TypeError, TypeTable};
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::usecases::all_use_cases;

/// Checks `unit` both ways and asserts they agree; returns the verdict.
fn check_both(unit: &CompilationUnit, table: &TypeTable, class: &str) -> Result<(), TypeError> {
    let template_class = ClassDef::new(class).ctor(vec![]);
    let overlaid = check_unit_in(unit, &TableOverlay::new(table, &template_class));
    let mut copy = table.clone();
    copy.add(template_class.clone());
    let copied = check_unit(unit, &copy);
    assert_eq!(
        overlaid, copied,
        "overlay and table copy disagree on {class}"
    );
    overlaid
}

/// The generated unit of use case 1, whose `OutputClass.templateUsage`
/// instantiates the template class; `edit` appends to that method.
fn uc1_with(edit: impl FnOnce(&str, &mut Vec<Stmt>)) -> (CompilationUnit, String) {
    let rules = open(PackSource::Embedded).unwrap().rules;
    let uc = all_use_cases().into_iter().next().unwrap();
    let mut unit = generate(&uc.template, &rules, &jca_type_table())
        .unwrap()
        .unit;
    let class = uc.template.class_name.clone();
    let usage = unit
        .classes
        .iter_mut()
        .find(|c| c.name == "OutputClass")
        .and_then(|c| c.methods.iter_mut().find(|m| m.name == "templateUsage"))
        .expect("uc1 has a templateUsage method");
    edit(&class, &mut usage.body);
    (unit, class)
}

#[test]
fn every_catalogue_unit_checks_the_same_against_overlay_and_copy() {
    let rules = open(PackSource::Embedded).unwrap().rules;
    let table = jca_type_table();
    let cases = all_use_cases();
    assert_eq!(cases.len(), 26);
    for uc in cases {
        let generated = generate(&uc.template, &rules, &table)
            .unwrap_or_else(|e| panic!("uc{} generates: {e}", uc.id));
        check_both(&generated.unit, &table, &uc.template.class_name)
            .unwrap_or_else(|e| panic!("uc{} type-checks: {e}", uc.id));
    }
}

#[test]
fn template_ctor_with_arguments_is_rejected_the_same_way() {
    let (unit, class) = uc1_with(|class, body| {
        body.push(Stmt::Expr(Expr::new_object(class, vec![Expr::int(1)])));
    });
    let err = check_both(&unit, &jca_type_table(), &class).unwrap_err();
    assert_eq!(
        err.message,
        format!("OutputClass.templateUsage: no constructor {class}([Int])")
    );
}

#[test]
fn missing_methods_are_rejected_the_same_way() {
    let table = jca_type_table();
    // On the template class itself (a unit-local call) ...
    let (unit, class) = uc1_with(|class, body| {
        let Some(Stmt::Decl { name, .. }) = body
            .iter()
            .find(|s| matches!(s, Stmt::Decl { ty, .. } if *ty == JavaType::class(class)))
        else {
            panic!("templateUsage declares the template instance");
        };
        let call = Expr::call(Expr::var(name.clone()), "noSuchMethod", vec![]);
        body.push(Stmt::Expr(call));
    });
    let err = check_both(&unit, &table, &class).unwrap_err();
    assert!(err.message.ends_with("noSuchMethod"), "{err}");
    // ... and on a table class.
    let (unit, class) = uc1_with(|_, body| {
        body.push(Stmt::Expr(Expr::static_call(
            "javax.crypto.Cipher",
            "noSuchMethod",
            vec![Expr::str("x")],
        )));
    });
    let err = check_both(&unit, &table, &class).unwrap_err();
    assert!(
        err.message
            .contains("no static method javax.crypto.Cipher.noSuchMethod"),
        "{err}"
    );
}

#[test]
fn template_class_widens_to_object_only() {
    let table = jca_type_table();
    let (unit, class) = uc1_with(|class, body| {
        body.push(Stmt::decl_init(
            JavaType::class("java.lang.Object"),
            "asObject",
            Expr::new_object(class, vec![]),
        ));
    });
    check_both(&unit, &table, &class).expect("a class widens to java.lang.Object");
    let (unit, class) = uc1_with(|class, body| {
        body.push(Stmt::decl_init(
            JavaType::string(),
            "asString",
            Expr::new_object(class, vec![]),
        ));
    });
    let err = check_both(&unit, &table, &class).unwrap_err();
    assert!(err.message.contains("cannot initialize `asString"), "{err}");
}

#[test]
fn template_class_shadowing_a_table_class_replaces_it() {
    // A template class named like a table class replaces that class, as
    // `TypeTable::add` would: its default constructor resolves, the
    // shadowed class's static factory no longer does.
    let shadowed = "java.security.SecureRandom";
    let method = MethodDecl::new("f", JavaType::Void)
        .statement(Stmt::decl_init(
            JavaType::class(shadowed),
            "fresh",
            Expr::new_object(shadowed, vec![]),
        ))
        .statement(Stmt::decl_init(
            JavaType::class(shadowed),
            "factory",
            Expr::static_call(shadowed, "getInstance", vec![Expr::str("SHA1PRNG")]),
        ));
    let unit = CompilationUnit::new("p").class(ClassDecl::new("Main").method(method));
    let table = jca_type_table();
    // Against the bare table the factory resolves and the ctor does not.
    assert_eq!(
        check_unit(&unit, &table).unwrap_err().message,
        "Main.f: no constructor java.security.SecureRandom([])"
    );
    let err = check_both(&unit, &table, shadowed).unwrap_err();
    assert_eq!(
        err.message,
        "Main.f: no static method java.security.SecureRandom.getInstance([Class(\"java.lang.String\")])"
    );
}
