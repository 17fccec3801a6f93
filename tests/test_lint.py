"""Static checks over the package source (no linter is a dependency)."""

import ast
import re
from pathlib import Path

import pytest

import s2fpn
from s2fpn.gradcheck import CHECKS

PACKAGE = Path(s2fpn.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
# where the product reaches package code from: the package itself, the
# benchmark and the documented interface (tests do not count)
PRODUCT = "\n".join(
    p.read_text()
    for p in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; `from __future__` is skipped."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    source = "from .errors import ConfigError, ShapeError\nraise ConfigError()\n"
    assert unused_imports(source) == ["line 1: ShapeError"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreached_definitions(source: str, product: str) -> list[str]:
    """Top-level def/class names of `source` that `product` names only once,
    at the definition itself."""
    tree = ast.parse(source)
    names = [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    return [name for name in names if len(re.findall(rf"\b{name}\b", product)) < 2]


def test_detects_a_definition_named_nowhere_else():
    source = "def used():\n    pass\n\n\ndef orphan():\n    return used()\n"
    assert unreached_definitions(source, source) == ["orphan"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_definition_only_tests_reach(path):
    assert unreached_definitions(path.read_text(), PRODUCT) == []


def unreached_methods(source: str, product: str) -> list[str]:
    """Methods and properties of `source`'s classes, dunders aside, that
    `product` names only once, at the definition itself. The rule is by
    name: a method that shares its name with anything else the product
    names escapes it."""
    methods = [
        node.name
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    return [name for name in methods if len(re.findall(rf"\b{name}\b", product)) < 2]


def test_detects_a_method_named_nowhere_else():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        pass\n"
        "    @property\n"
        "    def orphan(self):\n"
        "        return 1\n"
    )
    assert unreached_methods(source, source) == ["orphan"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_method_only_tests_reach(path):
    assert unreached_methods(path.read_text(), PRODUCT) == []


def attribute_loads(*sources: str) -> set[str]:
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


# the product's code, which reads attributes and calls functions: the
# package and the benchmark
CODE = [p.read_text() for p in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]]
READERS = attribute_loads(*CODE)


def unread_attributes(source: str, reads: set[str]) -> list[str]:
    """`self.<name> = ...` assignments whose name is in no attribute load of
    `reads`. The rule is by name: an attribute that shares its name with
    one read off any other object escapes it, as a `width`, `num_classes`
    or `channels` that its own class never reads would."""
    found = [
        (target.lineno, target.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and target.attr not in reads
    ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detects_an_attribute_read_nowhere():
    source = (
        "class Box:\n"
        "    def __init__(self, other):\n"
        "        self.read = 1\n"
        "        self.unread = 2\n"  # line 4
        "        other.unread = self.read\n"  # sets another object's attribute
    )
    assert unread_attributes(source, attribute_loads(source)) == ["line 4: unread"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_attribute_only_tests_read(path):
    assert unread_attributes(path.read_text(), READERS) == []


def _called_name(func) -> str | None:
    return getattr(func, "id", getattr(func, "attr", None))


# functions with one caller module each: the checkpoint shape rule is
# `serialize.restore`'s, and only `ops` builds or applies resample matrices
ONE_OWNER = {"pad4": "serialize.py", "_interp": "ops.py"}


def calls_of(source: str, name: str) -> list[str]:
    """Lines that call `name`, by name or as an attribute."""
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called_name(node.func) == name
    ]
    return [f"line {line}" for line in sorted(lines)]


def test_detects_a_pad4_call():
    source = (
        "from .serialize import pad4\n"
        "import serialize\n"
        "same = pad4(a.shape) == pad4(b.shape)\n"  # line 3, twice
        "size = serialize.pad4(a.shape)\n"  # line 4
        "rule = pad4\n"  # a reference, not a call
    )
    assert calls_of(source, "pad4") == ["line 3", "line 3", "line 4"]


def test_detects_an_interp_call():
    source = (
        "from . import ops\n"
        "mh, bands = ops._interp(h, out_h, x.dtype)\n"  # line 2
        "mw = _interp(w, out_w, x.dtype)[0]\n"  # line 3
        "y = ops._resample(x, out_h, out_w)\n"  # the op's helper, not the matrices
    )
    assert calls_of(source, "_interp") == ["line 2", "line 3"]


def test_each_one_owner_function_is_defined_by_its_owner():
    for name, owner in ONE_OWNER.items():
        assert f"\ndef {name}(" in (PACKAGE / owner).read_text(), name


def _outside(name: str) -> list[Path]:
    return [p for p in SOURCES if p.name != ONE_OWNER[name]]


@pytest.mark.parametrize("path", _outside("pad4"), ids=lambda p: p.name)
def test_only_serialize_calls_pad4(path):
    assert calls_of(path.read_text(), "pad4") == []


@pytest.mark.parametrize("path", _outside("_interp"), ids=lambda p: p.name)
def test_only_ops_calls_interp(path):
    assert calls_of(path.read_text(), "_interp") == []


# numpy calls that write into their first argument
_WRITES_FIRST_ARG = {"copyto", "put", "put_along_axis", "place", "putmask", "at"}


def gradient_writes(source: str) -> list[str]:
    """Lines where a `backward` closure writes into the gradient it is
    handed (its first argument): an augmented assignment to it, an
    assignment into a subscript or attribute of it, `out=` it, or a numpy
    call that writes its first argument. Leaves take the arrays backward
    sends them without a copy, so such a write could reach a leaf's `.grad`
    or a gradient another record still holds."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "backward" and fn.args.args):
            continue
        g = fn.args.args[0].arg

        def into_g(node) -> bool:
            while isinstance(node, (ast.Subscript, ast.Attribute)):
                node = node.value
            return isinstance(node, ast.Name) and node.id == g

        def targets(node):
            if isinstance(node, (ast.Tuple, ast.List)):
                for elt in node.elts:
                    yield from targets(elt)
            else:
                yield node

        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign):
                hit = into_g(node.target)
            elif isinstance(node, ast.Assign):
                hit = any(
                    isinstance(t, (ast.Subscript, ast.Attribute)) and into_g(t)
                    for target in node.targets
                    for t in targets(target)
                )
            elif isinstance(node, ast.Call):
                outs = [kw.value for kw in node.keywords if kw.arg == "out"]
                if isinstance(node.func, ast.Attribute) and node.func.attr in _WRITES_FIRST_ARG:
                    outs += node.args[:1]
                hit = any(into_g(t) for out in outs for t in targets(out))
            else:
                hit = False
            if hit:
                found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detects_a_write_into_the_incoming_gradient():
    source = (
        "def op(x):\n"
        "    def backward(g):\n"
        "        h = g * 2\n"  # line 3: a new array
        "        h += 1\n"
        "        g *= 2\n"  # line 5
        "        g[0] = 1\n"  # line 6
        "        a, g[1:] = h, 0\n"  # line 7
        "        np.multiply(h, 2, out=g)\n"  # line 8
        "        np.put_along_axis(g, idx, h, axis=1)\n"  # line 9
        "        g = g - h\n"  # line 10: rebinds, writes nothing
        "        g -= h\n"  # line 11: still the name the closure was handed
        "        return (h,)\n"
        "    return backward\n"
    )
    assert gradient_writes(source) == ["line 5", "line 6", "line 7", "line 8", "line 9", "line 11"]


@pytest.mark.parametrize("path", [PACKAGE / "ops.py", PACKAGE / "losses.py"], ids=lambda p: p.name)
def test_no_backward_writes_into_its_gradient(path):
    assert gradient_writes(path.read_text()) == []


# the network's modules take their float type from `default_dtype()`, as
# the parameters do, so `--f64` reaches every input, buffer and activation
_FLOAT_FREE = ("nn", "backbone", "pyramid", "attention", "decoder", "model", "analysis")


def float_type_names(source: str) -> list[str]:
    """Lines that name `np.float32` or `np.float64` (or via `numpy.`);
    docstrings and comments do not count."""
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in ("float32", "float64")
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ]
    return [f"line {line}" for line in sorted(lines)]


def test_detects_a_named_float_type():
    source = (
        '"""Runs in float32 unless told float64."""\n'
        "x = np.zeros(3, dtype=np.float32)\n"  # line 2
        "y = x.astype(numpy.float64)  # np.float32\n"  # line 3
        "z = x.astype(default_dtype())\n"
        "w = x.dtype == np.float64 or x.float32\n"  # line 5; `x.float32` is no type
    )
    assert float_type_names(source) == ["line 2", "line 3", "line 5"]


@pytest.mark.parametrize("name", _FLOAT_FREE)
def test_network_modules_name_no_float_type(name):
    assert float_type_names((PACKAGE / f"{name}.py").read_text()) == []


def test_readme_gradcheck_usage_lists_every_scope():
    [usage] = re.findall(r"s2fpn gradcheck \[([^\]]*)\]", (ROOT / "README.md").read_text())
    assert usage.split("|") == ["all", *CHECKS]


# a block's shape rules have one owner each: the frame rule is
# `S2FPN.forward`'s, and each op refuses the operands it cannot take
_BLOCK_MODULES = ("backbone", "pyramid", "attention", "decoder")


def raising_forwards(source: str) -> list[str]:
    """`Class.forward` methods that contain a `raise`; other methods, such
    as an `__init__` that refuses its arguments, do not count."""
    return [
        f"{cls.name}.forward"
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and fn.name == "forward"
        and any(isinstance(node, ast.Raise) for node in ast.walk(fn))
    ]


def test_detects_a_raising_forward():
    source = (
        "class Checked:\n"
        "    def __init__(self, c):\n"
        "        if c % 4:\n"
        "            raise ConfigError(c)\n"
        "\n"
        "    def forward(self, x):\n"
        "        if x.shape[1] != 4:\n"
        "            raise ShapeError(x.shape)\n"
        "        return x\n"
        "\n"
        "\n"
        "class Plain:\n"
        "    def forward(self, x):\n"
        "        return ops.relu(x)\n"
    )
    assert raising_forwards(source) == ["Checked.forward"]


@pytest.mark.parametrize("name", _BLOCK_MODULES)
def test_blocks_leave_shape_rules_to_the_network_and_ops(name):
    assert raising_forwards((PACKAGE / f"{name}.py").read_text()) == []


def _through_type(call) -> bool:
    """Whether `call` is `type(obj).method(obj, ...)`, which passes `self`."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and _called_name(func.value.func) == "type"
    )


def call_sites(*sources: str) -> list[tuple[str, int, set[str] | None]]:
    """Every call in `sources` as (callee, positional count, keyword
    names); the keywords are None where a `*args` or `**kwargs` passes
    every parameter. The callee is the called name or attribute, except
    that `cls(...)` inside a class calls that class, a call to a class
    without its own `__init__` calls its base's, and a method called off
    `type(obj)` is handed `obj` as its first positional. A call of a
    module, a name assigned or annotated as an instance of a class with a
    `forward`, is also a call of `forward`; the `forward` calls in
    `__call__` only relay those module calls, so they pass nothing
    themselves."""
    trees = [ast.parse(source) for source in sources]
    classes = {n.name: n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def owner(name, method):
        """The class that `name`'s instances take `method` from, or None."""
        seen = set()  # a subclass may share its base's name
        while name in classes and name not in seen:
            if any(isinstance(f, ast.FunctionDef) and f.name == method for f in classes[name].body):
                return name
            seen.add(name)
            name = _called_name(classes[name].bases[0]) if classes[name].bases else None
        return None

    def init_owner(name):
        return owner(name, "__init__") or name

    modules = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if owner(_called_name(node.value.func), "forward"):
                modules.update(_called_name(target) for target in node.targets)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if any(owner(getattr(n, "id", None), "forward") for n in ast.walk(node.annotation)):
                modules.add(node.arg)
    modules.discard(None)

    calls = []

    def visit(node, cls_name, fn_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = _called_name(child.func)
                name = init_owner(cls_name if name == "cls" and cls_name else name)
                spread = any(isinstance(a, ast.Starred) for a in child.args) or any(
                    kw.arg is None for kw in child.keywords
                )
                keywords = None if spread else {kw.arg for kw in child.keywords}
                count = len(child.args) - _through_type(child)
                if not (name == "forward" and fn_name == "__call__"):
                    calls.append((name, count, keywords))
                if name in modules:
                    calls.append(("forward", count, keywords))
            visit(
                child,
                child.name if isinstance(child, ast.ClassDef) else cls_name,
                child.name if isinstance(child, ast.FunctionDef) else fn_name,
            )

    for tree in trees:
        visit(tree, None, None)
    return calls


def unpassed_defaults(source: str, calls) -> list[str]:
    """Parameters with a default in `source`'s functions and methods that
    no call in `calls` passes, as `function(parameter)`. The rule is by
    name: a method is matched by its own name and `__init__` by its class's,
    so a parameter that any same-named callee is passed escapes it."""
    tree = ast.parse(source)
    methods = {
        id(fn): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        defaulted = positional[len(positional) - len(fn.args.defaults):] + [
            a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
        ]
        cls = methods.get(id(fn))
        if cls is not None and not any(_called_name(d) == "staticmethod" for d in fn.decorator_list):
            positional = positional[1:]  # `self` or `cls` is bound, not passed
        callee = cls if fn.name == "__init__" else fn.name
        label = callee if fn.name == "__init__" or cls is None else f"{cls}.{fn.name}"
        found += [
            f"{label}({param})"
            for param in defaulted
            if not any(
                name == callee and (keywords is None or param in keywords or param in positional[:count])
                for name, count, keywords in calls
            )
        ]
    return found


CALLS = call_sites(*CODE)


def test_detects_a_default_no_call_passes():
    source = (
        "def scale(x, factor=2, offset=0, power=1):\n"
        "    return x\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self, size, fill=0):\n"
        "        pass\n"
        "\n"
        "    @classmethod\n"
        "    def empty(cls, size, border=0):\n"
        "        return cls(size, border)\n"  # Box(fill) by position via cls
        "\n"
        "\n"
        "class Crate(Box):\n"
        "    def lid(self, shut=True, locked=False):\n"
        "        return scale(1, 3, power=2)\n"  # factor by position, power by keyword
        "\n"
        "\n"
        "def pack(*args, **kwargs):\n"
        "    Crate.empty(1, border=1)\n"
        "    Crate(2).lid(*args)\n"  # a subclass's constructor; `*args` passes every parameter
        "\n"
        "\n"
        "class Layer:\n"
        "    def __call__(self, *args, **kwargs):\n"
        "        return self.forward(*args, **kwargs)\n"  # relays the module calls
        "\n"
        "\n"
        "class Norm(Layer):\n"
        "    def forward(self, x, out=None, eps=0):\n"
        "        return x\n"
        "\n"
        "\n"
        "def finish(y, norm: Norm | None):\n"
        "    type(norm).forward(norm, y)\n"  # `norm` is `self`, so this passes `x` alone
        "    return norm(y, eps=1)\n"  # a module call passes `forward`'s `eps`
    )
    assert unpassed_defaults(source, call_sites(source)) == ["scale(offset)", "Norm.forward(out)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_default_is_passed_by_some_call(path):
    assert unpassed_defaults(path.read_text(), CALLS) == []


# the network's modules write into a Tensor's `.data` in one place only:
# the conv epilogue, which writes into the conv output it was handed
_NETWORK_MODULES = ("nn", "backbone", "pyramid", "attention", "decoder", "model")
_EPILOGUE = "conv_epilogue"


def data_writes(source: str) -> list[str]:
    """Lines outside `_EPILOGUE` that write into some Tensor's `.data` in
    place: an augmented assignment to it or into it, an assignment into a
    subscript of it, an `out=` argument that names it, or a numpy call
    that writes its first argument, given it."""

    def names_data(node) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr == "data" for n in ast.walk(node))

    def rooted_at_data(node) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "data"

    tree = ast.parse(source)
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == _EPILOGUE
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.AugAssign):
            hit = rooted_at_data(node.target)
        elif isinstance(node, ast.Assign):
            hit = any(isinstance(t, ast.Subscript) and rooted_at_data(t) for t in node.targets)
        elif isinstance(node, ast.Call):
            outs = [kw.value for kw in node.keywords if kw.arg == "out"]
            if _called_name(node.func) in _WRITES_FIRST_ARG:
                outs += node.args[:1]
            hit = any(names_data(out) for out in outs)
        else:
            hit = False
        if hit:
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detects_an_in_place_write_to_a_tensors_data():
    source = (
        "def conv_epilogue(y, inplace):\n"
        "    y.data += 1\n"  # the one allowed place
        "    return ops.relu(y, out=y.data if inplace else None)\n"
        "\n"
        "\n"
        "def block(x, h, out):\n"
        "    h.data += x.data\n"  # line 7
        "    h.data[0] *= 2\n"  # line 8
        "    h.data[..., 1] = 0\n"  # line 9
        "    np.maximum(h.data, 0, out=h.data)\n"  # line 10
        "    np.copyto(x.data, h.data)\n"  # line 11
        "    y = ops.relu(h, out=out)\n"  # an array passed through, not named here
        "    z = h.data + 1\n"  # a new array
        "    z += 1\n"  # not a Tensor's data
        "    h.data = z\n"  # rebinds the attribute, writes nothing
        "    return ops.add(y, z, out=None)\n"
    )
    assert data_writes(source) == ["line 7", "line 8", "line 9", "line 10", "line 11"]


@pytest.mark.parametrize("name", _NETWORK_MODULES)
def test_only_the_conv_epilogue_writes_into_a_tensors_data(name):
    assert data_writes((PACKAGE / f"{name}.py").read_text()) == []
