//! `#[derive(Serialize, Deserialize)]` for the in-repo serde shim.
//!
//! Hand-parses the item from raw `proc_macro::TokenTree`s (no `syn` /
//! `quote` available offline) and emits impls of the shim's
//! `serde::Serialize` / `serde::Deserialize` traits. Supports exactly the
//! shapes this workspace derives: non-generic structs (named, tuple,
//! unit) and enums (unit, tuple, struct variants), plus `#[serde(skip)]`
//! on named struct fields. The JSON layout matches real serde's default
//! externally-tagged representation so persisted files look conventional.
//! `Serialize` gets both `to_value` and a streaming `write_json` that
//! prints the same bytes — object keys sorted here, at expansion time,
//! the way the `BTreeMap` behind `serde::Map` orders them.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    ty: String,
    skip: bool,
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(Vec<String>),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    TupleStruct {
        name: String,
        types: Vec<String>,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

// ---------------------------------------------------------------- parsing

/// `true` if the bracketed attribute body is `serde(... skip ...)`.
fn attr_is_serde_skip(group: &proc_macro::Group) -> bool {
    let mut toks = group.stream().into_iter();
    match (toks.next(), toks.next()) {
        (Some(TokenTree::Ident(name)), Some(TokenTree::Group(args)))
            if name.to_string() == "serde" =>
        {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(i) if i.to_string() == "skip"))
        }
        _ => false,
    }
}

/// Consumes leading `#[...]` attributes; returns whether any was
/// `#[serde(skip)]`.
fn eat_attrs(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> bool {
    let mut skip = false;
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                match toks.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        skip |= attr_is_serde_skip(&g);
                    }
                    other => panic!("expected [...] after #, got {other:?}"),
                }
            }
            _ => return skip,
        }
    }
}

/// Consumes `pub` / `pub(...)` if present.
fn eat_vis(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    if matches!(toks.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        toks.next();
        if matches!(toks.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            toks.next();
        }
    }
}

/// Collects a type as source text until a top-level `,` (or the end).
fn eat_type(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> String {
    let mut depth = 0i32;
    let mut out = String::new();
    while let Some(t) = toks.peek() {
        match t {
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            _ => {}
        }
        let t = toks.next().expect("peeked");
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&t.to_string());
    }
    out
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut toks = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let skip = eat_attrs(&mut toks);
        eat_vis(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("expected field name, got {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, got {other:?}"),
        }
        let ty = eat_type(&mut toks);
        fields.push(Field { name, ty, skip });
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("expected `,` between fields, got {other:?}"),
        }
    }
    fields
}

fn parse_tuple_types(stream: TokenStream) -> Vec<String> {
    let mut toks = stream.into_iter().peekable();
    let mut types = Vec::new();
    loop {
        eat_attrs(&mut toks);
        eat_vis(&mut toks);
        if toks.peek().is_none() {
            break;
        }
        types.push(eat_type(&mut toks));
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("expected `,` between tuple fields, got {other:?}"),
        }
    }
    types
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut toks = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        eat_attrs(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("expected variant name, got {other:?}"),
        };
        let shape = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.stream();
                toks.next();
                VariantShape::Tuple(parse_tuple_types(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.stream();
                toks.next();
                VariantShape::Named(parse_named_fields(g))
            }
            _ => VariantShape::Unit,
        };
        variants.push(Variant { name, shape });
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("expected `,` between variants, got {other:?}"),
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    // Skip outer attributes and visibility on the item itself.
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                eat_attrs(&mut toks);
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => eat_vis(&mut toks),
            _ => break,
        }
    }
    let kind = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected `struct` or `enum`, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected item name, got {other:?}"),
    };
    if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic type `{name}`");
    }
    match kind.as_str() {
        "struct" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::NamedStruct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Item::TupleStruct {
                    name,
                    types: parse_tuple_types(g.stream()),
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item::UnitStruct { name },
            other => panic!("unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("expected enum body for `{name}`, got {other:?}"),
        },
        other => panic!("cannot derive serde impls for `{other} {name}`"),
    }
}

// ------------------------------------------------------------- generation

/// Statements streaming `{"k":v,...}` for named fields, keys sorted;
/// `exprs` pairs each field name with the expression borrowing it.
fn object_json(exprs: &[(&str, String)]) -> String {
    let mut sorted: Vec<&(&str, String)> = exprs.iter().collect();
    sorted.sort_by_key(|(name, _)| *name);
    let mut body = String::from("out.push('{');\n");
    for (i, (name, expr)) in sorted.into_iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        body.push_str(&format!(
            "out.push_str(\"{comma}\\\"{name}\\\":\");\n\
             serde::Serialize::write_json({expr}, out);\n"
        ));
    }
    body.push_str("out.push('}');\n");
    body
}

/// Statements streaming `[a,b,...]` for the given borrow expressions.
fn array_json(exprs: &[String]) -> String {
    let mut body = String::from("out.push('[');\n");
    for (i, expr) in exprs.iter().enumerate() {
        if i > 0 {
            body.push_str("out.push(',');\n");
        }
        body.push_str(&format!("serde::Serialize::write_json({expr}, out);\n"));
    }
    body.push_str("out.push(']');\n");
    body
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let kept: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
            let mut body = String::from("let mut m = serde::Map::new();\n");
            for f in &kept {
                body.push_str(&format!(
                    "m.insert(\"{0}\".to_string(), serde::Serialize::to_value(&self.{0}));\n",
                    f.name
                ));
            }
            body.push_str("serde::Value::Object(m)");
            let exprs: Vec<(&str, String)> = kept
                .iter()
                .map(|f| (f.name.as_str(), format!("&self.{}", f.name)))
                .collect();
            impl_serialize(name, &body, &object_json(&exprs))
        }
        Item::TupleStruct { name, types } => {
            let (body, json) = match types.len() {
                0 => (
                    "serde::Value::Null".to_string(),
                    "out.push_str(\"null\");".to_string(),
                ),
                1 => (
                    "serde::Serialize::to_value(&self.0)".to_string(),
                    "serde::Serialize::write_json(&self.0, out);".to_string(),
                ),
                n => {
                    let elems: Vec<String> = (0..n)
                        .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    let exprs: Vec<String> = (0..n).map(|i| format!("&self.{i}")).collect();
                    (
                        format!("serde::Value::Array(vec![{}])", elems.join(", ")),
                        array_json(&exprs),
                    )
                }
            };
            impl_serialize(name, &body, &json)
        }
        Item::UnitStruct { name } => {
            impl_serialize(name, "serde::Value::Null", "out.push_str(\"null\");")
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            let mut json_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vn} => serde::Value::String(\"{vn}\".to_string()),\n"
                        ));
                        json_arms.push_str(&format!(
                            "{name}::{vn} => out.push_str(\"\\\"{vn}\\\"\"),\n"
                        ));
                    }
                    VariantShape::Tuple(types) => {
                        let binds: Vec<String> =
                            (0..types.len()).map(|i| format!("f{i}")).collect();
                        let (payload, payload_json) = if types.len() == 1 {
                            (
                                "serde::Serialize::to_value(f0)".to_string(),
                                "serde::Serialize::write_json(f0, out);\n".to_string(),
                            )
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_value({b})"))
                                .collect();
                            (
                                format!("serde::Value::Array(vec![{}])", elems.join(", ")),
                                array_json(&binds),
                            )
                        };
                        let binds = binds.join(", ");
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => {{\n\
                             let mut m = serde::Map::new();\n\
                             m.insert(\"{vn}\".to_string(), {payload});\n\
                             serde::Value::Object(m)\n}}\n"
                        ));
                        json_arms.push_str(&format!(
                            "{name}::{vn}({binds}) => {{\n\
                             out.push_str(\"{{\\\"{vn}\\\":\");\n\
                             {payload_json}\
                             out.push('}}');\n}}\n"
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let binds = binds.join(", ");
                        let mut inner = String::from("let mut inner = serde::Map::new();\n");
                        for f in fields {
                            inner.push_str(&format!(
                                "inner.insert(\"{0}\".to_string(), serde::Serialize::to_value({0}));\n",
                                f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => {{\n{inner}\
                             let mut m = serde::Map::new();\n\
                             m.insert(\"{vn}\".to_string(), serde::Value::Object(inner));\n\
                             serde::Value::Object(m)\n}}\n"
                        ));
                        let exprs: Vec<(&str, String)> = fields
                            .iter()
                            .map(|f| (f.name.as_str(), f.name.clone()))
                            .collect();
                        json_arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => {{\n\
                             out.push_str(\"{{\\\"{vn}\\\":\");\n\
                             {}\
                             out.push('}}');\n}}\n",
                            object_json(&exprs)
                        ));
                    }
                }
            }
            impl_serialize(
                name,
                &format!("match self {{\n{arms}\n}}"),
                &format!("match self {{\n{json_arms}\n}}"),
            )
        }
    }
}

fn impl_serialize(name: &str, body: &str, json: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl serde::Serialize for {name} {{\n\
         fn to_value(&self) -> serde::Value {{\n{body}\n}}\n\
         fn write_json(&self, out: &mut ::std::string::String) {{\n{json}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let mut inits = String::new();
            for f in fields {
                if f.skip {
                    inits.push_str(&format!(
                        "{}: ::std::default::Default::default(),\n",
                        f.name
                    ));
                } else {
                    inits.push_str(&format!(
                        "{0}: <{1} as serde::Deserialize>::from_value(\
                         obj.get(\"{0}\").unwrap_or(&serde::Value::Null))\
                         .map_err(|e| serde::Error::custom(format!(\"{name}.{0}: {{e}}\")))?,\n",
                        f.name, f.ty
                    ));
                }
            }
            let body = format!(
                "let obj = v.as_object().ok_or_else(|| \
                 serde::Error::custom(\"expected object for `{name}`\"))?;\n\
                 Ok({name} {{\n{inits}}})"
            );
            impl_deserialize(name, &body)
        }
        Item::TupleStruct { name, types } => {
            let body = match types.len() {
                0 => format!("Ok({name})"),
                1 => format!(
                    "Ok({name}(<{} as serde::Deserialize>::from_value(v)?))",
                    types[0]
                ),
                n => {
                    let mut elems = String::new();
                    for (i, ty) in types.iter().enumerate() {
                        elems.push_str(&format!(
                            "<{ty} as serde::Deserialize>::from_value(&arr[{i}])?,\n"
                        ));
                    }
                    format!(
                        "let arr = v.as_array().ok_or_else(|| \
                         serde::Error::custom(\"expected array for `{name}`\"))?;\n\
                         if arr.len() != {n} {{\n\
                         return Err(serde::Error::custom(\"wrong tuple length for `{name}`\"));\n}}\n\
                         Ok({name}(\n{elems}))"
                    )
                }
            };
            impl_deserialize(name, &body)
        }
        Item::UnitStruct { name } => impl_deserialize(name, &format!("Ok({name})")),
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut keyed_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),\n"));
                        // Also accept {"Variant": null}, the keyed form.
                        keyed_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),\n"));
                    }
                    VariantShape::Tuple(types) => {
                        if types.len() == 1 {
                            keyed_arms.push_str(&format!(
                                "\"{vn}\" => Ok({name}::{vn}(\
                                 <{} as serde::Deserialize>::from_value(payload)?)),\n",
                                types[0]
                            ));
                        } else {
                            let mut elems = String::new();
                            for (i, ty) in types.iter().enumerate() {
                                elems.push_str(&format!(
                                    "<{ty} as serde::Deserialize>::from_value(&arr[{i}])?,\n"
                                ));
                            }
                            keyed_arms.push_str(&format!(
                                "\"{vn}\" => {{\n\
                                 let arr = payload.as_array().ok_or_else(|| \
                                 serde::Error::custom(\"expected array for `{name}::{vn}`\"))?;\n\
                                 if arr.len() != {n} {{\n\
                                 return Err(serde::Error::custom(\"wrong arity for `{name}::{vn}`\"));\n}}\n\
                                 Ok({name}::{vn}(\n{elems}))\n}}\n",
                                n = types.len()
                            ));
                        }
                    }
                    VariantShape::Named(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&format!(
                                "{0}: <{1} as serde::Deserialize>::from_value(\
                                 inner.get(\"{0}\").unwrap_or(&serde::Value::Null))\
                                 .map_err(|e| serde::Error::custom(format!(\"{name}::{vn}.{0}: {{e}}\")))?,\n",
                                f.name, f.ty
                            ));
                        }
                        keyed_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let inner = payload.as_object().ok_or_else(|| \
                             serde::Error::custom(\"expected object for `{name}::{vn}`\"))?;\n\
                             Ok({name}::{vn} {{\n{inits}}})\n}}\n"
                        ));
                    }
                }
            }
            let body = format!(
                "match v {{\n\
                 serde::Value::String(s) => match s.as_str() {{\n{unit_arms}\
                 other => Err(serde::Error::custom(format!(\"unknown variant `{{other}}` for `{name}`\"))),\n}},\n\
                 serde::Value::Object(m) if m.len() == 1 => {{\n\
                 let (tag, payload) = m.iter().next().expect(\"len checked\");\n\
                 match tag.as_str() {{\n{keyed_arms}\
                 other => Err(serde::Error::custom(format!(\"unknown variant `{{other}}` for `{name}`\"))),\n}}\n}},\n\
                 _ => Err(serde::Error::custom(\"expected variant tag for `{name}`\")),\n}}"
            );
            impl_deserialize(name, &body)
        }
    }
}

fn impl_deserialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl serde::Deserialize for {name} {{\n\
         fn from_value(v: &serde::Value) -> ::std::result::Result<Self, serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}
