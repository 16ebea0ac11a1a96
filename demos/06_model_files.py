"""
Model files and reports
=======================

Models travel as hand-editable text files (or an equivalent JSON form)
with every entry an exact rational.  A report bundles the whole
pipeline — validation, class flags, invariants, identity verdicts —
into one deterministic document.
"""
import json

from norden import (
    FamilyParams,
    ValidationError,
    generate_family,
    parse_model,
    run_report,
    report_to_json,
    report_to_text,
    serialize_model,
)

model = generate_family(FamilyParams(1, (2, 3)))

# --- the text format --------------------------------------------------------
text = serialize_model(model)
print(text)

# Parsing validates by default; the round trip is exact because
# rationals are written as p/q strings, never floats.
back = parse_model(text)
print("round-trip exact:", back.g == model.g and back.phi == model.phi)

# --- itemized rejection -----------------------------------------------------
# A file whose xi is annihilated by eta is rejected with the specific
# broken rules, not a generic error.
broken = text.replace("[xi]\n1 0 0", "[xi]\n0 1 0")
try:
    parse_model(broken)
except ValidationError as err:
    print("rejected:", ", ".join(sorted(err.report.rules())))

# --- reports ----------------------------------------------------------------
report = run_report(model)
print()
print(report_to_text(report))

# The JSON form (schema 2) has sorted keys, so identical inputs produce
# byte-identical documents.  Invariants are p/q strings; each tensor is
# its integer numerators over one denominator, listed by index when fewer
# than half of its entries are nonzero and as a flat list otherwise.
js = report_to_json(report)
doc = json.loads(js)
print("JSON document:", len(js), "bytes; schema", doc["schema"])
print("tau:", doc["invariants"]["tau"])
for name in ("gamma", "ricci"):
    print(f"{name}:", json.dumps(doc["tensors"][name], sort_keys=True))

# The same pipeline is scriptable from the shell:
#
#   norden family --n 1 --lambda 2,3 --emit-model member.model
#   norden validate member.model
#   norden report member.model --json
#   norden identities member.model --quiet
#   norden section member.model --x 1,0,0 --y 0,1,0
