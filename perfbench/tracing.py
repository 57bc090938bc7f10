"""Timing wrappers around the public functions of so_lab's layers.

A Tracer replaces every module attribute that binds a traced function
(the defining module's own global as well as each `from ... import`
copy), so calls between modules and within one are all seen.  Each call
becomes a span: name, start, end, parent span and the exception it
raised, if any.  Spans stay in memory until `write` saves them.  Self
time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import inspect
import sys
import time

# The public functions of each layer, as "<module>.<function>" under
# so_lab.  Each is named in the per-layer metrics of BENCHMARK.json.
TRACED = (
    "sat.eval_homogeneous",
    "structures.eval_so_full",
    "structures.compile_evaluator",
    "structures.canonical_key",
    "structures.iter_structures",
    "structures.models_up_to",
    "structures.find_isomorphism",
    "formulas.contains_so",
    "formulas.free_relation_variables",
    "formulas.parse",
    "formulas.prenex_so",
    "formulas.classify",
    "ultra.henkin_model",
    "ultra.recompose",
    "ultra.ultraproduct",
    "ultra.check_fubini",
    "ultra.check_los",
    "ultra.henkin_eval",
    "types_omitting.realized_types",
    "types_omitting.omitted_by_all",
    "types_omitting.property_A_check",
    "types_omitting.check_omission_axiomatization",
    "formula_space.vector_set",
    "formula_space.theory_vector",
    "formula_space.find_separating_formula",
    "formula_space.boolean_closure",
    "formula_space.set_distance",
)

# Ratios and counts taken where the work happens, beside calls and self
# time: (metric name, unit, better).
DERIVED = (
    ("structures.eval_so_full.budget_stops", "count", "lower"),
    ("structures.models_up_to.classes_per_candidate", "ratio", "higher"),
    ("ultra.recompose.boxes_per_call", "ratio", "higher"),
    ("types_omitting.realized_types.calls_per_structure", "ratio", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in TRACED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend(DERIVED)
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = TRACED
        self.index = {name: i for i, name in enumerate(TRACED)}
        self.spans = []      # (round, span id, parent id, name index, start, end, error)
        self.round = 0
        self._stack = []     # open frames: [span id, child seconds, distinct boxes]
        self._next_id = 1
        self.enabled = True  # off while the benchmark itself calls the program
        self.reset_counts()

    def reset_counts(self):
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.budget_stops = 0
        self.candidates = 0      # structures iter_structures yields to models_up_to
        self._in_models = 0
        self.classes = 0         # models returned by models_up_to
        self.recompose_calls = 0
        self.distinct_boxes = 0  # summed per henkin_model call
        self.realized_for = set()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function in the freshly imported so_lab."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "so_lab" or name.startswith("so_lab."))]
        for qualified in self.names:
            module_name, func_name = qualified.rsplit(".", 1)
            func = getattr(sys.modules[f"so_lab.{module_name}"], func_name)
            wrapper = self._wrap(func, self.index[qualified], qualified)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, wrapper)

    def _wrap(self, func, idx, qualified):
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(func, idx)
        tracer = self
        on_result = {
            "ultra.recompose": self._saw_box,
            "structures.models_up_to": self._saw_models,
            "types_omitting.realized_types": self._saw_realization,
        }.get(qualified)
        opens_box_scope = qualified == "ultra.henkin_model"
        opens_models_scope = qualified == "structures.models_up_to"
        counts_budget = qualified == "structures.eval_so_full"
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            tracer.calls[idx] += 1
            frame = [tracer._next_id, 0.0, set() if opens_box_scope else None]
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else 0
            tracer._stack.append(frame)
            tracer._in_models += opens_models_scope
            error = ""
            start = perf()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                if counts_budget and error == "BudgetExceededError":
                    tracer.budget_stops += 1
                raise
            finally:
                end = perf()
                tracer._in_models -= opens_models_scope
                tracer._close(frame, idx, parent, start, end, error)
            if on_result is not None:
                on_result(result, args)
            if opens_box_scope:
                tracer.distinct_boxes += len(frame[2])
            return result

        return wrapper

    def _wrap_generator(self, func, idx):
        """Each resumption of the generator is one span; the call count
        is the number of generators made."""
        tracer = self
        perf = time.perf_counter
        counts_candidates = self.names[idx] == "structures.iter_structures"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                yield from func(*args, **kwargs)
                return
            tracer.calls[idx] += 1
            gen = func(*args, **kwargs)
            while True:
                frame = [tracer._next_id, 0.0, None]
                tracer._next_id += 1
                parent = tracer._stack[-1][0] if tracer._stack else 0
                tracer._stack.append(frame)
                start = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(frame, idx, parent, start, perf(), "")
                    return
                except BaseException as exc:
                    tracer._close(frame, idx, parent, start, perf(), type(exc).__name__)
                    raise
                tracer._close(frame, idx, parent, start, perf(), "")
                if counts_candidates and tracer._in_models:
                    tracer.candidates += 1
                yield item

        return wrapper

    def _close(self, frame, idx, parent, start, end, error):
        self._stack.pop()
        duration = end - start
        self.self_s[idx] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((self.round, frame[0], parent, idx, start, end, error))

    # -- per-function result hooks -----------------------------------------

    def _saw_box(self, result, args):
        self.recompose_calls += 1
        for frame in reversed(self._stack):
            if frame[2] is not None:
                frame[2].add(result)
                break

    def _saw_models(self, result, args):
        self.classes += len(result)

    def _saw_realization(self, result, args):
        self.realized_for.add(args[0])

    # -- reporting -----------------------------------------------------------

    def round_metrics(self):
        """Per-layer figures of the round traced since reset_counts."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out["structures.eval_so_full.budget_stops"] = self.budget_stops
        out["structures.models_up_to.classes_per_candidate"] = (
            self.classes / self.candidates if self.candidates else 0.0)
        out["ultra.recompose.boxes_per_call"] = (
            self.distinct_boxes / self.recompose_calls if self.recompose_calls else 0.0)
        realized_calls = self.calls[self.index["types_omitting.realized_types"]]
        out["types_omitting.realized_types.calls_per_structure"] = (
            realized_calls / len(self.realized_for) if self.realized_for else 0.0)
        return out

    def write(self, path, round_number):
        """Save the spans of one round, one tab-separated line each."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("round\tspan\tparent\tfunction\tstart_s\tend_s\terror\n")
            for rnd, span, parent, idx, start, end, error in self.spans:
                if rnd != round_number:
                    continue
                out.write(f"{rnd}\t{span}\t{parent}\t{self.names[idx]}"
                          f"\t{start:.9f}\t{end:.9f}\t{error}\n")
