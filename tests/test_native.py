"""Native backend pieces that need neither a compiler nor x86 hardware."""

import ctypes
import os
import re

import pytest

from memchar import native

C_TYPES = {
    "uint64_t": ctypes.c_uint64,
    "int": ctypes.c_int,
    "double": ctypes.c_double,
    "char": ctypes.c_char,
    "void": None,
}


def _ctype(decl: str):
    """ctypes type of one C declaration such as ``const char *buf``."""
    if "*" in decl:
        return ctypes.c_void_p
    return C_TYPES[decl.split()[-2]]


def exported_kernels() -> dict:
    """name -> (restype, argtypes) of every non-static ``mc_*`` definition."""
    src = native._SRC.read_text()
    found = {}
    for m in re.finditer(r"^(?!static)([\w ]+?)\s*\b(mc_\w+)\(([^)]*)\)\s*\{", src, re.M):
        ret, name, params = m.groups()
        params = " ".join(params.split())
        args = () if params in ("", "void") else tuple(
            _ctype(p) for p in params.split(",")
        )
        found[name] = (C_TYPES[ret.split()[-1]], args)
    return found


class TestKernelTable:
    def test_every_exported_kernel_is_declared_as_defined(self):
        exported = exported_kernels()
        assert {"mc_chase", "mc_touch", "mc_write_touch", "mc_triad"} <= set(exported)
        assert exported == {
            name: (restype, tuple(argtypes))
            for name, (restype, argtypes) in native.KERNEL_SIGNATURES.items()
        }


class TestKernelCache:
    def test_path_keyed_on_source_flags_and_compiler(self, tmp_path, monkeypatch):
        src = tmp_path / "kernels.c"
        src.write_text("int mc_one(void) { return 1; }\n")
        monkeypatch.setattr(native, "_SRC", src)
        monkeypatch.setattr(native, "_compiler_identity", lambda cc: "cc 1.0")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        paths = [native._kernel_path("cc"), native._kernel_path("cc")]
        src.write_text("int mc_one(void) { return 2; }\n")
        paths.append(native._kernel_path("cc"))
        monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-g",))
        paths.append(native._kernel_path("cc"))
        monkeypatch.setattr(native, "_compiler_identity", lambda cc: "cc 1.1")
        paths.append(native._kernel_path("cc"))
        assert paths[0] == paths[1]
        assert len(set(paths)) == 4
        for path in paths:
            assert path.parent == tmp_path / "cache" / "memchar"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
class TestPinning:
    def test_mask_restored_after_block_and_after_error(self):
        before = os.sched_getaffinity(0)
        core = min(before)
        with native._pinned(core):
            assert os.sched_getaffinity(0) == {core}
        assert os.sched_getaffinity(0) == before
        with pytest.raises(RuntimeError):
            with native._pinned(core):
                raise RuntimeError("measurement failed")
        assert os.sched_getaffinity(0) == before
