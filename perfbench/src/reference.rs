//! The reference outputs every response is compared against: the Java
//! source the generator emitted for each catalogue use case, kept as
//! `reference/ucNN.java` files, plus two checks of each reference that
//! do not go through the generator.

use std::collections::BTreeMap;
use std::path::Path;

use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::javamodel::parser::parse_java;
use cognicryptgen::javamodel::printer::print_unit;
use cognicryptgen::rules::{self, PackSource};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::usecases::all_use_cases;

/// Reference Java source per use-case id.
pub type References = BTreeMap<u8, String>;

/// Reads `dir/ucNN.java` for every catalogue use case.
///
/// # Errors
///
/// A missing or unreadable file, or a file for an id the catalogue
/// does not have.
pub fn load(dir: &Path) -> Result<References, String> {
    let mut refs = References::new();
    for uc in all_use_cases() {
        let path = dir.join(file_name(uc.id));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reference {}: {e}", path.display()))?;
        refs.insert(uc.id, text);
    }
    let files = std::fs::read_dir(dir)
        .map_err(|e| format!("reference dir {}: {e}", dir.display()))?
        .count();
    if files != refs.len() {
        return Err(format!(
            "reference dir {} holds {files} files for {} use cases",
            dir.display(),
            refs.len()
        ));
    }
    Ok(refs)
}

/// `ucNN.java`.
pub fn file_name(id: u8) -> String {
    format!("uc{id:02}.java")
}

/// Checks every reference without the generator: it must parse with
/// the Java front end and reprint byte-identically, and the static
/// analyser must find no misuse of the embedded CrySL rules in it.
/// Returns one message per failed check.
pub fn check_independently(refs: &References) -> Vec<String> {
    let table = jca_type_table();
    let rules = match rules::open_uncached(PackSource::Embedded) {
        Ok(pack) => pack.rules,
        Err(e) => return vec![format!("embedded rules: {e}")],
    };
    let mut problems = Vec::new();
    for (id, source) in refs {
        let name = file_name(*id);
        let unit = match parse_java(source, &table) {
            Ok(unit) => unit,
            Err(e) => {
                problems.push(format!("{name}: does not parse: {e}"));
                continue;
            }
        };
        if print_unit(&unit) != *source {
            problems.push(format!("{name}: reprints differently"));
        }
        let misuses = analyze_unit(&unit, &rules, &table, AnalyzerOptions::default());
        if let Some(first) = misuses.first() {
            problems.push(format!(
                "{name}: {} misuse(s), first: {first}",
                misuses.len()
            ));
        }
    }
    problems
}
