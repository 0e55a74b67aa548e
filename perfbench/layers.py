"""Per-layer tracing for the benchmark's traced run.

The tracer replaces public functions and methods of the motivesums modules
with timing wrappers, from outside the package: module-level functions are
rebound in every motivesums module that holds them, methods are rebound on
their class (operator aliases such as `__radd__` included).  Nothing is
installed unless the traced run asks for it.

Each wrapped callable belongs to a group named `<module>.<group>`.  A group
records calls, inclusive busy time (outermost activations only, so recursion
is not counted twice) and self time (busy time minus the time of wrapped
calls made inside it).  Spans are kept for ops and for module-entry calls (a
wrapped call whose caller is in another module) and written out at the end.
"""
from __future__ import annotations

import json
import time

# group -> (owner, attribute names).  Owner is "<module>" for module-level
# functions or "<module>.<Class>".  Names that the roadmap plans to delete
# (poly_divrem, derivative, evaluate, RationalFunction, weights_vector,
# SymbolicPolynomial.monomial, IntPolynomial.x) are deliberately absent.
# Groups that no metric names still count: without them their time would be
# booked as self time of the caller, often in another module.
GROUPS = {
    "exactalg.sym_new": ("exactalg.SymbolicPolynomial", ["__init__", "constant", "variable", "from_int_poly"]),
    "exactalg.sym_add": ("exactalg.SymbolicPolynomial", ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__"]),
    "exactalg.sym_mul": ("exactalg.SymbolicPolynomial", ["__mul__", "__rmul__"]),
    "exactalg.sym_pow": ("exactalg.SymbolicPolynomial", ["__pow__"]),
    "exactalg.sym_substitute": ("exactalg.SymbolicPolynomial", ["substitute"]),
    "exactalg.sym_divrem": ("exactalg.SymbolicPolynomial", ["divrem", "exact_div"]),
    "exactalg.sym_other": (
        "exactalg.SymbolicPolynomial",
        ["__eq__", "__hash__", "__str__", "scale_exponents", "evaluate", "derivative",
         "degree_in", "coefficient_in", "map_coefficients", "content"],
    ),
    "exactalg.int_poly": (
        "exactalg.IntPolynomial",
        ["__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
         "__rmul__", "__pow__", "__divmod__", "__truediv__", "derivative", "evaluate",
         "substitute_power", "reversed_coeffs", "content"],
    ),
    "exactalg.int_poly_fn": ("exactalg", ["cyclotomic", "poly_gcd", "root_power_transform", "to_int_poly"]),
    "exactalg.resultant": ("exactalg", ["resultant"]),
    "oracle.field_new": ("oracle.FiniteField", ["__init__"]),
    "oracle.field_op": ("oracle.FiniteField", ["add", "sub", "neg", "mul", "digits", "embed"]),
    "oracle.field_pow": ("oracle.FiniteField", ["power", "inv"]),
    "oracle.poly_rem": ("oracle.FiniteField", ["poly_rem"]),
    "oracle.field_poly": ("oracle.FiniteField", ["poly_div_exact", "poly_mul", "reciprocal"]),
    "oracle.factor_monic": ("oracle", ["factor_monic", "irreducible_monics"]),
    "oracle.census": ("oracle", ["sl_census", "sp_census", "self_reciprocal_irreducible_census"]),
    "lefschetz.cyc_new": ("lefschetz.CyclotomicRational", ["__init__", "from_rational", "root_of_unity", "promoted"]),
    "lefschetz.cyc_add": ("lefschetz.CyclotomicRational", ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__"]),
    "lefschetz.cyc_mul": ("lefschetz.CyclotomicRational", ["__mul__", "__rmul__", "__pow__", "__truediv__"]),
    "lefschetz.cyc_inverse": ("lefschetz.CyclotomicRational", ["inverse"]),
    "lefschetz.cyc_other": ("lefschetz.CyclotomicRational", ["__eq__", "__hash__", "__str__", "divided_exactly"]),
    "lefschetz.function": (
        "lefschetz.LefschetzFunction",
        ["__init__", "__add__", "__neg__", "__sub__", "__mul__", "__pow__", "compose_scale",
         "divided_exactly", "evaluate", "evaluate_rational", "chi", "constant", "single"],
    ),
    "lefschetz.transform": ("lefschetz", ["f_N_transform", "place_product"]),
    "lseries.l_value": ("lseries", ["l_value"]),
    "lseries.z_polynomial": ("lseries", ["z_polynomial"]),
    "lseries.evaluate_with_weil_roots": ("lseries", ["evaluate_with_weil_roots", "symmetric_pair_eval"]),
    "lseries.lefschetz_fit": ("lseries", ["lefschetz_fit"]),
    "lseries.other": ("lseries", ["weil_root_product", "multiplicity_sum", "j_variable_names"]),
    "classsums.certificate": ("classsums", ["sl_script_p", "sp_certificate", "sl_prime_certificate"]),
    "classsums.h_polynomial": ("classsums", ["h_polynomial", "m_numerator", "derivative_witness"]),
    "classsums.evaluate_certificate": ("classsums", ["evaluate_certificate"]),
    "classsums.class_sum": ("classsums", ["class_sum"]),
    "classtypes.enumerate": ("classtypes", ["enumerate_sl_types", "enumerate_sp_types"]),
    "classtypes.count": ("classtypes", ["count_sl", "count_sp", "s_count", "irreducible_count"]),
    "classtypes.other": ("classtypes", ["sl_centralizer_motive", "sp_centralizer_motive", "moebius", "divisors"]),
    "motives.frobenius_det": ("motives.ArtinTateMotive", ["frobenius_det", "frobenius_det_factors"]),
    "motives.other": ("motives", ["motive_of", "parse_group_spec"]),
    "motives.motive": ("motives.ArtinTateMotive", ["__init__", "direct_sum", "induce", "quotient_trivial"]),
    "curves.h0_det": ("curves", ["h0_det", "charpoly_of_power"]),
    "curves.base_change": ("curves.CurveDatum", ["base_change"]),
}

MODULES = ("exactalg", "oracle", "lefschetz", "lseries", "classsums", "classtypes", "motives", "curves")


def _size(p) -> int:
    return len(p.terms) if hasattr(p, "terms") else 1


def _mul_pairs(args) -> int:
    return _size(args[0]) * _size(args[1])


# group -> {extra counter: function of (args, result) giving its increment}
EXTRAS = {
    "exactalg.sym_mul": {"term_pairs": lambda args, result: _mul_pairs(args)},
    "oracle.poly_rem": {"divides": lambda args, result: int(result == ())},
    "classsums.certificate": {
        "checks": lambda args, result: len(result.checks),
        "terms": lambda args, result: len(result.polynomial.terms),
    },
}


class Group:
    __slots__ = ("name", "module", "calls", "busy", "self_time", "depth", "extra", "missing")

    def __init__(self, name: str):
        self.name = name
        self.module = name.split(".")[0]
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.extra = {key: 0 for key in EXTRAS.get(name, {})}
        self.missing: list[str] = []


class Tracer:
    def __init__(self):
        self.groups = {name: Group(name) for name in GROUPS}
        self.errors = {m: 0 for m in MODULES}
        self.bench_self = 0.0
        # each frame: [child time, module, span id]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.op_id = -1
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every name in GROUPS on the freshly imported package."""
        modules = {m: getattr(package, m, None) for m in MODULES}
        for gname, (owner, names) in GROUPS.items():
            group = self.groups[gname]
            mod_name, _, cls_name = owner.partition(".")
            module = modules[mod_name]
            target = getattr(module, cls_name, None) if cls_name else module
            # a name that has gone (with its class or module) reads as missing
            for name in names:
                label = f"{owner}.{name}"
                if cls_name:
                    raw = target.__dict__.get(name) if target is not None else None
                    if raw is None:
                        group.missing.append(label)
                        continue
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(raw.__func__, group, label))
                    else:
                        wrapped = self._wrap(raw, group, label)
                    self._restore.append((target, name, raw))
                    setattr(target, name, wrapped)
                else:
                    fn = getattr(module, name, None)
                    if fn is None:
                        group.missing.append(label)
                        continue
                    wrapped = self._wrap(fn, group, label)
                    for other in modules.values():
                        if getattr(other, name, None) is fn:
                            self._restore.append((other, name, fn))
                            setattr(other, name, wrapped)

    def uninstall(self) -> None:
        for target, name, raw in reversed(self._restore):
            setattr(target, name, raw)
        self._restore.clear()

    def _wrap(self, fn, group: Group, label: str):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        errors = self.errors
        tracer = self
        module = group.module
        extras = list(EXTRAS.get(group.name, {}).items())

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = parent is None or parent[1] != module
            span_id = len(spans) if entry else parent[2]
            if entry:
                spans.append(None)
            frame = [0.0, module, span_id]
            stack.append(frame)
            group.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if entry:
                    errors[module] += 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                group.depth -= 1
                group.calls += 1
                if not group.depth:
                    group.busy += elapsed
                group.self_time += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if entry:
                    spans[span_id] = (
                        label, start, end, parent[2] if parent else None, tracer.op_id
                    )
            for key, count in extras:
                group.extra[key] += count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int, label: str) -> None:
        self.op_id = op_id
        span_id = len(self.spans)
        self.spans.append(None)
        self.stack.append([0.0, "bench", span_id, label, time.perf_counter()])

    def end_op(self) -> None:
        child, _, span_id, label, start = self.stack.pop()
        end = time.perf_counter()
        self.bench_self += (end - start) - child
        self.spans[span_id] = (f"op {label}", start, end, None, self.op_id)

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict:
        """Every exported per-layer value; None marks a group with a
        missing wrapped name."""
        out: dict = {}

        def put(name, value, group=None):
            out[name] = None if group is not None and group.missing else value

        for group in self.groups.values():
            put(f"{group.name}.calls", group.calls, group)
            put(f"{group.name}.busy_s", group.busy, group)
            put(f"{group.name}.self_s", group.self_time, group)
            for key, value in group.extra.items():
                put(f"{group.name}.{key}", value, group)
        rem = self.groups["oracle.poly_rem"]
        put("oracle.poly_rem.divides_ratio", rem.extra["divides"] / rem.calls if rem.calls else 0.0, rem)
        module_self = {m: 0.0 for m in MODULES}
        for group in self.groups.values():
            module_self[group.module] += group.self_time
        module_self["bench"] = self.bench_self
        total = sum(module_self.values()) or 1.0
        for m, value in module_self.items():
            out[f"{m}.self_s"] = value
            out[f"{m}.self_share"] = value / total
        for m, value in self.errors.items():
            out[f"{m}.errors"] = value
        return out

    def missing(self) -> list[str]:
        return [label for group in self.groups.values() for label in group.missing]

    def write_spans(self, path) -> int:
        with open(path, "w") as fh:
            for span_id, span in enumerate(self.spans):
                name, start, end, parent, op_id = span
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op_id}
                ) + "\n")
        return len(self.spans)
