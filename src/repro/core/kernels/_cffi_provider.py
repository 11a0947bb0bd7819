"""cffi provider: compiles :mod:`repro.core.kernels._csource` to a shared
object and exposes the raw-array kernel protocol.

Compile-cache layout
--------------------
Shared objects live under ``$REPRO_KERNEL_CACHE`` (or
``$XDG_CACHE_HOME/repro/kernels``, defaulting to
``~/.cache/repro/kernels``) in a directory named by the first 16 hex
digits of ``sha256(C source + cdef + ABI version + interpreter tag +
cffi version)``.  Any change to the C source, the declared interface or
the toolchain therefore lands in a fresh directory and stale objects are
simply never looked up again -- invalidation is content addressing, not
mtime comparison.  Builds happen in a ``tmp-<pid>`` sibling directory and
the finished object is moved into place with :func:`os.replace`, so
concurrent first calls (e.g. a pool of workers warming up together) race
benignly: every loser overwrites the winner's byte-identical file.

Thread safety: cffi releases the GIL while C runs, so output scratch
buffers are per-thread (:class:`threading.local`); the immutable input
arrays are shared behind a lock-guarded LRU keyed on the task-set
signature.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import sys
import sysconfig
import threading
from collections import OrderedDict
from typing import Any, List, Optional, Sequence, Tuple

import cffi

from repro.core.kernels._csource import (
    CDEF,
    CSOURCE,
    REPRO_KERNELS_ABI,
    REPRO_MAX_SMALL,
)

__all__ = ["CffiKernels", "build", "cache_dir"]

_COMPILE_ARGS = ["-O2", "-ffp-contract=off"]
_SIG_CACHE_LIMIT = 4096

#: One task-set's immutable input arrays: (n, rel, dl, wl) cdata buffers.
_SigEntry = Tuple[int, Any, Any, Any]


def _cache_root() -> str:
    env = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "kernels")


def _build_tag() -> str:
    payload = "\n".join(
        [
            CSOURCE,
            CDEF,
            f"abi={REPRO_KERNELS_ABI}",
            sys.implementation.cache_tag or sys.version,
            str(sysconfig.get_config_var("EXT_SUFFIX") or ""),
            getattr(cffi, "__version__", "?"),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def cache_dir() -> str:
    """Directory holding (or destined to hold) this build's artifacts."""
    return os.path.join(_cache_root(), _build_tag())


def _compile(name: str, final_dir: str) -> str:
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(name, CSOURCE, extra_compile_args=_COMPILE_ARGS)
    tmp = f"{final_dir}.tmp-{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    try:
        built = ffi.compile(tmpdir=tmp, verbose=False)
        os.makedirs(final_dir, exist_ok=True)
        target = os.path.join(final_dir, os.path.basename(built))
        os.replace(built, target)
        return target
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _import_extension(name: str, path: str) -> Any:
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_loader(name, loader, origin=path)
    assert spec is not None
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[name] = module
    return module


def _load_compiled() -> Tuple[Any, Any]:
    tag = _build_tag()
    name = f"_repro_kernels_{tag}"
    cached = sys.modules.get(name)
    if cached is not None:
        return cached.ffi, cached.lib
    final_dir = os.path.join(_cache_root(), tag)
    so_path = None
    if os.path.isdir(final_dir):
        for entry in sorted(os.listdir(final_dir)):
            if entry.startswith(name) and entry.endswith(
                (".so", ".pyd", ".dylib")
            ):
                so_path = os.path.join(final_dir, entry)
                break
    if so_path is None:
        so_path = _compile(name, final_dir)
    module = _import_extension(name, so_path)
    return module.ffi, module.lib


class CffiKernels:
    """Raw-array kernel protocol backed by the compiled shared object."""

    name = "cffi"

    def __init__(self, ffi: Any, lib: Any) -> None:
        self._ffi = ffi
        self._lib = lib
        self._sig_cache: "OrderedDict[Any, _SigEntry]" = OrderedDict()
        self._sig_lock = threading.Lock()
        self._local = threading.local()

    # -- shared input / per-thread output buffers ---------------------------

    def _arrays(self, sig: Sequence[Tuple[float, float, float]]) -> _SigEntry:
        key = sig if isinstance(sig, tuple) else tuple(sig)
        with self._sig_lock:
            hit = self._sig_cache.get(key)
            if hit is not None:
                self._sig_cache.move_to_end(key)
                return hit
        ffi = self._ffi
        rel = ffi.new("double[]", [t[0] for t in key])
        dl = ffi.new("double[]", [t[1] for t in key])
        wl = ffi.new("double[]", [t[2] for t in key])
        entry: _SigEntry = (len(key), rel, dl, wl)
        with self._sig_lock:
            self._sig_cache[key] = entry
            while len(self._sig_cache) > _SIG_CACHE_LIMIT:
                self._sig_cache.popitem(last=False)
        return entry

    def _scratch(self) -> Tuple[Any, ...]:
        """Per-thread buffers: 3 inputs (rel/dl/wl), then outputs.

        The fused solve fills the input buffers in place instead of going
        through :meth:`_arrays`: the replan loop solves a fresh task set
        per call, so the signature LRU would miss every time and its
        hashing + ``ffi.new`` allocations are pure overhead there.
        """
        bufs = getattr(self._local, "bufs", None)
        if bufs is None:
            ffi = self._ffi
            bufs = (
                ffi.new("double[]", REPRO_MAX_SMALL),
                ffi.new("double[]", REPRO_MAX_SMALL),
                ffi.new("double[]", REPRO_MAX_SMALL),
                ffi.new("double[]", REPRO_MAX_SMALL),
                ffi.new("int[]", REPRO_MAX_SMALL),
                ffi.new("double[]", 3),
            )
            self._local.bufs = bufs
        return bufs

    def clear_caches(self) -> None:
        with self._sig_lock:
            self._sig_cache.clear()

    # -- kernel protocol ----------------------------------------------------

    def overhead_solve_small(
        self,
        sig: Sequence[Tuple[float, float, float]],
        latest_deadline: float,
        params: Tuple[float, ...],
        rel_end: float,
    ) -> Tuple[float, Tuple[float, ...], Tuple[int, ...], Optional[Tuple[float, float, int]]]:
        n = len(sig)
        if n > REPRO_MAX_SMALL:
            raise ValueError(
                f"fused overhead solve supports n <= {REPRO_MAX_SMALL}, got {n}"
            )
        rel, dl, wl, ends_buf, order_buf, best_buf = self._scratch()
        i = 0
        for r, d, w in sig:
            rel[i] = r
            dl[i] = d
            wl[i] = w
            i += 1
        alpha, beta, lam, s_m, s_up, xi, alpha_m, xi_m = params
        rc = self._lib.repro_overhead_solve_small(
            n, rel, dl, wl, latest_deadline,
            alpha, beta, lam, s_m, s_up, xi, alpha_m, xi_m,
            rel_end, ends_buf, order_buf, best_buf,
        )
        if rc not in (0, 1, 2):
            raise RuntimeError(f"overhead_solve_small kernel failed (rc={rc})")
        ends = tuple(ends_buf[0:n])
        order = tuple(order_buf[0:n])
        horizon = ends[-1]
        best: Optional[Tuple[float, float, int]] = None
        if rc == 0:
            best = (best_buf[0], best_buf[1], int(best_buf[2]))
        return horizon, ends, order, best

    def block_energy_batch(
        self,
        sig: Sequence[Tuple[float, float, float]],
        params: Tuple[float, ...],
        starts: Sequence[float],
        ends: Sequence[float],
    ) -> List[float]:
        n, rel, dl, wl = self._arrays(sig)
        ffi = self._ffi
        alpha, beta, lam, s_m, s_up, _xi, alpha_m, _xi_m = params
        k = len(starts)
        starts_b = ffi.new("double[]", [float(v) for v in starts])
        ends_b = ffi.new("double[]", [float(v) for v in ends])
        out = ffi.new("double[]", k)
        self._lib.repro_block_energy_batch(
            n, rel, dl, wl, alpha, beta, lam, s_m, s_up, alpha_m,
            k, starts_b, ends_b, out,
        )
        return list(out[0:k])

    def solve_block_descent(
        self,
        sig: Sequence[Tuple[float, float, float]],
        params: Tuple[float, ...],
        x_bounds: Tuple[float, float],
        y_bounds: Tuple[float, float],
        starts: Sequence[Tuple[float, float]],
        tol: float,
        max_rounds: int,
    ) -> Tuple[float, float, float]:
        n, rel, dl, wl = self._arrays(sig)
        ffi = self._ffi
        alpha, beta, lam, s_m, s_up, _xi, alpha_m, _xi_m = params
        sx = ffi.new("double[]", [float(s[0]) for s in starts])
        sy = ffi.new("double[]", [float(s[1]) for s in starts])
        out = ffi.new("double[]", 3)
        self._lib.repro_solve_block_descent(
            n, rel, dl, wl, alpha, beta, lam, s_m, s_up, alpha_m,
            x_bounds[0], x_bounds[1], y_bounds[0], y_bounds[1],
            len(starts), sx, sy, tol, max_rounds, out,
        )
        return out[0], out[1], out[2]

    def powersum_roots(
        self,
        values: Sequence[float],
        workloads: Sequence[float],
        masks: bytes,
        count: int,
        lo: Sequence[float],
        hi: Sequence[float],
        target: float,
        lam: float,
        mode: int,
        tol: float,
        max_iter: int,
    ) -> List[float]:
        ffi = self._ffi
        n = len(values)
        vals_b = ffi.new("double[]", [float(v) for v in values])
        wl_b = ffi.new("double[]", [float(v) for v in workloads])
        masks_b = ffi.from_buffer("unsigned char[]", masks)
        lo_b = ffi.new("double[]", [float(v) for v in lo])
        hi_b = ffi.new("double[]", [float(v) for v in hi])
        out = ffi.new("double[]", count)
        self._lib.repro_powersum_roots(
            n, vals_b, wl_b, count, masks_b, lo_b, hi_b,
            target, lam, mode, tol, max_iter, out,
        )
        return list(out[0:count])


def build() -> CffiKernels:
    """Compile (or reuse the cached build) and return the provider."""
    ffi, lib = _load_compiled()
    return CffiKernels(ffi, lib)
