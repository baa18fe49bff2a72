"""Build script: compiles the optional kernel extension.

The package is fully functional without it (a pure-Python fallback is
selected at import time), so a failed compile only downgrades
performance.  The extension is hand-written C; a C compiler suffices.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - degrade, don't fail the install
            print(f"warning: kernel extension build failed ({exc}); "
                  "falling back to pure Python")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: building {ext.name} failed ({exc}); "
                  "falling back to pure Python")


ext_modules = [
    Extension("cosetqec._kernels._speedups", ["src/cosetqec/_kernels/_speedups.c"])
]
setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
