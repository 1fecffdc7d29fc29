"""Names that the program or its benchmark harness refer to by string must resolve.

A rename in ``simba`` would otherwise zero a per-layer metric in silence
(an unmatched span name), break the benchmark run (a missing patch
target or module attribute) or reshape it (a config field it sets that no
longer exists), instead of failing here.  Likewise every config field must
be read somewhere, so that a field whose code path is deleted goes with
it, and every field must be set differently by some preset or have a
reason to exist that no preset shows.  Every ``Module`` subclass must be
a layer with a ``forward``, not a container of parameters for another
layer to unpack.
"""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

from simba.config import PRESETS, TrainConfig

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _resolve(dotted: str):
    """getattr chain from ``simba.<module>``: 'tensor.Tensor.backward' and the like."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"simba.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


# names the benchmark still refers to after the program deleted them, each with
# the reason the benchmark keeps it until its next refresh
DELETED_NAMES = {
    "nn.PointwiseConv2d": "the partition gate's conv is inside tensor.partition_gate; "
                          "perfbench/spans.py LAYER_OF drops it at the benchmark refresh "
                          "(ROADMAP item 13)",
    "nn.BatchNorm2d": "each shift_gcn.ShiftUnit owns its batch-norm state; perfbench/spans.py "
                      "LAYER_OF drops it at the benchmark refresh (ROADMAP item 13), and its "
                      "nn.batch_norm.* metrics read 0 already, as the class had no forward",
}


def _mod_name(node):
    """'data' for the expression ``mod("data")``, else None."""
    if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "mod"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Constant)):
        return node.args[0].value
    return None


def _workload_reads():
    """What ``perfbench/workloads.py`` reads of the program: every dotted
    attribute chain through ``mod("<module>")`` or a name bound to it, and
    every ``cfg.<name>``."""
    attrs, cfg_fields = set(), set()
    for fn in ast.parse((PERFBENCH / "workloads.py").read_text()).body:
        bound = {}  # name -> module, per top-level function and the functions nested in it
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    bound.update((t.id, _mod_name(v)) for t, v in pairs
                                 if isinstance(t, ast.Name) and _mod_name(v))
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                chain, root = [node.attr], node.value
                while isinstance(root, ast.Attribute):
                    chain, root = [root.attr, *chain], root.value
                module = bound.get(root.id) if isinstance(root, ast.Name) else _mod_name(root)
                if module:
                    attrs.add(".".join([module, *chain]))
                if getattr(node.value, "id", None) == "cfg":
                    cfg_fields.add(node.attr)
    return attrs, cfg_fields


def test_perfbench_span_and_patch_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    names = set(spans.LAYER_OF)
    names.update(name for parts in spans.PHASES.values() for name in parts)
    names.update(re.findall(r'durations\("([\w.]+)"\)', (PERFBENCH / "run.py").read_text()))
    # what the workloads read, call or replace of the program, and the config
    # fields they read or set: a rename would crash or silently reshape a run
    reads, cfg_fields = _workload_reads()
    assert {"checkpoint.read_checkpoint", "config.preset_ntu60", "data.synth_generate",
            "train.SGD.step", "train.evaluate"} <= reads, sorted(reads)
    names.update(reads)
    assert {"epochs", "seed", "scan_chunk"} <= cfg_fields, sorted(cfg_fields)
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert cfg_fields <= fields, f"cfg reads that are no TrainConfig field: {sorted(cfg_fields - fields)}"
    assert len(names) > 20
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert set(missing) == set(DELETED_NAMES), (
        f"names that do not resolve: {sorted(set(missing) - set(DELETED_NAMES))}; "
        f"listed as deleted but resolve or are no longer referenced: "
        f"{sorted(set(DELETED_NAMES) - set(missing))}")


def test_every_config_field_is_read():
    source = "\n".join(path.read_text() for path in sorted((ROOT / "src" / "simba").glob("*.py"))
                       if path.name != "config.py")
    fields = [f.name for f in dataclasses.fields(TrainConfig)]
    assert len(fields) > 16
    unread = [name for name in fields if not re.search(rf"\bcfg\.{name}\b", source)]
    assert not unread, unread


# fields that no preset varies, each with the reason it stays a field
ONE_VALUED_FIELDS = {
    "with_imamba": "the paper's ablation; acceptance criterion 5 turns it off",
    "seed": "a run setting, which the benchmark and the determinism tests set",
    "precision": "float64 gives byte-reproducible runs (acceptance criterion 8)",
    "scan_chunk": "pinned by perfbench/workloads.py until ROADMAP item 6 step 2 deletes it",
}


def test_every_config_field_varies_across_presets_or_is_allowed():
    presets = [dataclasses.asdict(preset()) for preset in PRESETS.values()]
    one_valued = {name for name in presets[0] if all(p[name] == presets[0][name] for p in presets)}
    assert one_valued == set(ONE_VALUED_FIELDS), (
        f"one-valued fields without a reason: {sorted(one_valued - set(ONE_VALUED_FIELDS))}; "
        f"reasons for fields that vary or are gone: {sorted(set(ONE_VALUED_FIELDS) - one_valued)}")


# constructor parameters with a default that no call in the program passes,
# each with the reason it stays a parameter
UNPASSED_PARAMETERS = {}


def _defaulted_init_parameters(tree):
    """{"Class.param": positional index, or None if keyword-only} for every
    ``__init__`` parameter with a default."""
    found = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                args = init.args
                positional = (args.posonlyargs + args.args)[1:]  # drop self
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    found[f"{cls.name}.{positional[i].arg}"] = i
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{cls.name}.{arg.arg}"] = None
    return found


def test_every_defaulted_constructor_parameter_is_passed_or_allowed():
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "simba").glob("*.py"))]
    params = {}
    for tree in trees:
        params.update(_defaulted_init_parameters(tree))
    assert len(params) > 5
    passed = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        cls = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        positional = len(node.args)
        for key, index in params.items():
            name, param = key.split(".")
            if name == cls and (param in {k.arg for k in node.keywords}
                                or (index is not None and index < positional)):
                passed.add(key)
    unpassed = set(params) - passed
    assert unpassed == set(UNPASSED_PARAMETERS), (
        f"parameters no call passes, without a reason: {sorted(unpassed - set(UNPASSED_PARAMETERS))}; "
        f"reasons for parameters that are passed or gone: "
        f"{sorted(set(UNPASSED_PARAMETERS) - unpassed)}")


def test_every_module_subclass_defines_forward():
    # a Module with no forward is a parameter container, whose every field
    # its caller unpacks by hand; the layer that uses the fields owns them
    classes = {}
    for path in sorted((ROOT / "src" / "simba").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node

    def bases(cls):
        return [getattr(b, "id", None) or getattr(b, "attr", None) for b in cls.bases]

    def is_module(name):
        return name == "Module" or (name in classes and any(map(is_module, bases(classes[name]))))

    def has_forward(name):
        cls = classes[name]
        return (any(isinstance(f, ast.FunctionDef) and f.name == "forward" for f in cls.body)
                or any(b in classes and b != "Module" and has_forward(b) for b in bases(cls)))

    modules = [name for name in classes if name != "Module" and is_module(name)]
    assert len(modules) >= 8, modules
    assert [name for name in modules if not has_forward(name)] == []
