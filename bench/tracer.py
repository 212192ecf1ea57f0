"""Per-module timing and call counting for one `bethe` process.

`install()` wraps every function and method that the `bethe` modules
define, plus the methods of the rational type, so each call crosses a
module boundary the tracer sees.  Nothing under `src/` changes: the
wrappers replace the module and class attributes in the running process
only.

* Self time: the time between two boundary events is charged to the
  module on top of the calling thread's stack, so a module's self time
  excludes the time spent in other traced modules it calls.  Code outside
  every traced module is charged to "other".
* Watched calls (`WATCH`) also count calls and/or record inclusive time.
  Inclusive time is taken only at the outermost active call of a key, so
  recursion and nested calls sharing a key are not counted twice.

The main thread uses the wall clock.  Worker threads of the CLI's thread
pool use their own CPU clock, so time they spend waiting for the
interpreter lock is not charged twice and module times still add up to
the process's busy time.
"""
from __future__ import annotations

import fractions
import functools
import importlib
import inspect
import threading
import time

MODULES = ("rationals", "indices", "algebra", "series", "tensor", "yangian",
           "twisted", "evalmap", "poisson", "certify", "cli", "reports")

# qualified name -> (count key or None, inclusive-time key or None).
# A "module.*" entry applies to every function of that module.
WATCH = {
    "fractions.Fraction.__new__": ("rationals.new_calls", None),
    "algebra.AlgebraElement.__mul__": ("algebra.mul_calls", None),
    "algebra.CommutationRule.mono_times_mono":
        ("algebra.mono_times_mono_calls", None),
    "series.TruncatedSeries.__mul__": ("series.mul_calls", None),
    "series.TruncatedSeries.invert": ("series.invert_calls", None),
    "series.TruncatedSeries.substitute_affine":
        ("series.substitute_calls", None),
    "series.BiLaurent.__mul__": ("series.bilaurent_mul_calls", None),
    "tensor.TensorElement.__mul__": ("tensor.mul_calls", None),
    "tensor.TensorElement.partial_trace": ("tensor.trace_calls", None),
    "tensor.TensorElement.partial_trace_all": ("tensor.trace_calls", None),
    "tensor.antisymmetrizer": (None, "tensor.antisymmetrizer_s"),
    "yangian.bethe_series": (None, "yangian.bethe_series_s"),
    "yangian.bethe_series_tensor": (None, "yangian.bethe_series_tensor_s"),
    "yangian.hat_bethe_series": (None, "yangian.hat_bethe_series_s"),
    "twisted.twisted_bethe_series": (None, "twisted.bethe_series_s"),
    "twisted.fused_s": ("twisted.fused_s_calls", "twisted.fused_s_s"),
    "twisted.TwistedContext.s_expand": (None, "twisted.s_expand_s"),
    "evalmap.*": (None, "evalmap.busy_s"),
    "poisson.det_poly": ("poisson.det_poly_calls", "poisson.det_poly_s"),
    "poisson.matrix_rank": ("poisson.matrix_rank_calls",
                            "poisson.matrix_rank_s"),
    "poisson.poisson_bracket": (None, "poisson.bracket_s"),
    "cli.conventions": (None, "cli.conventions_s"),
    "reports.*": (None, "reports.write_s"),
}


class _ThreadState:
    __slots__ = ("clock", "stack", "last", "self_s", "calls", "incl", "depth")

    def __init__(self, clock):
        self.clock = clock
        self.stack = ["other"]
        self.last = clock()
        self.self_s: dict = {}
        self.calls: dict = {}
        self.incl: dict = {}
        self.depth: dict = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            st = _ThreadState(time.perf_counter if main else time.thread_time)
            self._local.st = st
            with self._lock:
                self._states.append(st)
            return st

    def wrap(self, fn, module: str, watch=None):
        """Return `fn` wrapped as a boundary of `module`."""
        state = self._state
        count_key, time_key = watch or (None, None)

        if count_key is None and time_key is None:
            def traced(*args, **kwargs):
                st = state()
                stack = st.stack
                if stack[-1] == module:
                    return fn(*args, **kwargs)
                now = st.clock()
                top = stack[-1]
                st.self_s[top] = st.self_s.get(top, 0.0) + now - st.last
                stack.append(module)
                st.last = now
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = st.clock()
                    stack.pop()
                    st.self_s[module] = (st.self_s.get(module, 0.0)
                                         + now - st.last)
                    st.last = now
        else:
            def traced(*args, **kwargs):
                st = state()
                stack = st.stack
                if count_key is not None:
                    st.calls[count_key] = st.calls.get(count_key, 0) + 1
                outer = False
                if time_key is not None:
                    d = st.depth.get(time_key, 0)
                    st.depth[time_key] = d + 1
                    outer = d == 0
                now = t0 = st.clock()
                top = stack[-1]
                st.self_s[top] = st.self_s.get(top, 0.0) + now - st.last
                stack.append(module)
                st.last = now
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = st.clock()
                    stack.pop()
                    st.self_s[module] = (st.self_s.get(module, 0.0)
                                         + now - st.last)
                    st.last = now
                    if time_key is not None:
                        st.depth[time_key] -= 1
                        if outer:
                            st.incl[time_key] = (st.incl.get(time_key, 0.0)
                                                 + now - t0)

        return functools.wraps(fn)(traced)

    def totals(self) -> dict:
        """Merge every thread's counters: {"self_s", "calls", "incl_s"}.
        Call from the main thread once the traced work has finished."""
        main = self._state()
        now = main.clock()
        top = main.stack[-1]
        main.self_s[top] = main.self_s.get(top, 0.0) + now - main.last
        main.last = now
        out = {"self_s": {}, "calls": {}, "incl_s": {}}
        with self._lock:
            states = list(self._states)
        for st in states:
            for field, src in (("self_s", st.self_s), ("calls", st.calls),
                               ("incl_s", st.incl)):
                dst = out[field]
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        return out


def _wrap_class(tracer: Tracer, cls, module: str, watch_prefix: str) -> None:
    """Wrap the functions, static and class methods `cls` itself defines
    (inherited ones are wrapped on the class that defines them)."""
    for name, attr in list(vars(cls).items()):
        watch = _watch_for(watch_prefix, f"{cls.__name__}.{name}")
        if isinstance(attr, (staticmethod, classmethod)):
            new = type(attr)(tracer.wrap(attr.__func__, module, watch))
        elif inspect.isfunction(attr):
            new = tracer.wrap(attr, module, watch)
        else:
            continue
        setattr(cls, name, new)


def _watch_for(prefix: str, qualname: str):
    return WATCH.get(f"{prefix}.{qualname}") or WATCH.get(f"{prefix}.*")


def install() -> Tracer:
    """Wrap the `bethe` modules and the rational type in this process."""
    import bethe
    from bethe import rationals

    tracer = Tracer()
    # Fraction is pure Python and can be wrapped; a C type such as
    # gmpy2.mpq cannot, and its time then stays with its callers.
    if rationals.Q is fractions.Fraction:
        _wrap_class(tracer, fractions.Fraction, "rationals", "fractions")
    mods = [importlib.import_module(f"bethe.{name}") for name in MODULES]
    replaced = {}
    for name, mod in zip(MODULES, mods):
        for attr_name, attr in list(vars(mod).items()):
            if getattr(attr, "__module__", None) != mod.__name__:
                continue
            if isinstance(attr, type):
                _wrap_class(tracer, attr, name, name)
            elif inspect.isfunction(attr):
                replaced[attr] = tracer.wrap(attr, name,
                                             _watch_for(name, attr_name))
                setattr(mod, attr_name, replaced[attr])
    # Rebind functions other modules imported by name (`from .x import f`).
    for mod in (*mods, bethe):
        for attr_name, attr in list(vars(mod).items()):
            if inspect.isfunction(attr) and attr in replaced:
                setattr(mod, attr_name, replaced[attr])
    tracer._state()  # start the main thread's clock
    return tracer
