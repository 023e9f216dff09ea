"""torickit: exact computations on fans of smooth toric varieties.

The toolkit validates fans, analyzes homogeneous coordinate and degree
data, decides membership in spaces of based holomorphic maps from the
sphere by exact polynomial arithmetic, and computes the stability
dimension of the inclusion into the double loop space, cross-checked by an
independent region-propagation oracle.

The package is lazy: each library module below is registered in
`sys.modules` and as a package attribute at import, but its code is
compiled and run only when one of its attributes is first read, so a CLI
subcommand pays start-up only for the modules it runs. The public names
resolve through the module-level `__getattr__` (PEP 562). `cli` is not
registered: `python -m torickit.cli` runs it as `__main__`.
"""

import importlib.util
import sys
from _thread import RLock
from types import ModuleType

__version__ = "0.1.0"

# The public names, grouped by the module that defines them.
_EXPORTS = {
    "catalog": ("CatalogEntry", "builder_for", "c2_fan", "cp_fan", "hirzebruch_fan", "load_catalog"),
    "cones": ("SimplicialCone", "cone_contains", "intersection_is_common_face", "is_smooth_cone"),
    "cox": ("CoxGroupReport", "DegreeVector", "complete_degrees", "cox_report", "degree_of"),
    "fans": (
        "Fan",
        "ValidationReport",
        "enumerate_subfans",
        "fan_isomorphism",
        "is_complete",
        "is_nonface",
        "is_smooth",
        "isomorphism_classes",
        "nonface_family",
        "primitive_collections",
        "r_min",
        "validate_fan",
    ),
    "gaussian": ("GaussianRational",),
    "holmap": (
        "Configuration",
        "EvaluationResult",
        "PolyTuple",
        "StabilizationResult",
        "config_is_member",
        "config_to_polytuple",
        "evaluate",
        "is_member",
        "scanning_snapshot",
        "stabilize",
        "violating_collections",
    ),
    "lattice": (
        "IntegerMatrix",
        "SmithDecomposition",
        "kernel_basis",
        "positive_kernel_vector",
        "primitivize",
        "smith_normal_form",
    ),
    "stability": (
        "DiscriminantDims",
        "StabilityReport",
        "discriminant_dims",
        "stability_report",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


# Held while a registered module's code runs. One lock for all of them: a
# module's code reads the modules it imports, so per-module locks taken in
# different orders by two threads could deadlock.
_RUN_LOCK = RLock()
_running = set()  # names of the modules whose code is running now
_module_dict = ModuleType.__dict__["__dict__"].__get__


def _run(module) -> None:
    """Run a registered module's code once, then make it a plain module.

    The class switches only after the code has run, so another thread that
    reads the module meanwhile waits on the lock instead of seeing a
    half-filled namespace. A read from the running code itself (on this
    thread) returns at once.
    """
    with _RUN_LOCK:
        if module.__class__ is not _LazyModule or module.__name__ in _running:
            return
        _running.add(module.__name__)
        try:
            module.__spec__.loader.exec_module(module)
        finally:
            _running.discard(module.__name__)
        module.__class__ = ModuleType


class _LazyModule(ModuleType):
    """A registered module whose code has not run yet.

    Only the import attributes (`__name__`, `__spec__`, `__file__`, ...)
    are set; reading any other attribute, `vars()` or `dir()` runs the code.
    """

    def __getattr__(self, name):
        _run(self)
        if self.__class__ is _LazyModule:  # read by its own running code
            raise AttributeError(
                f"partially initialized module {self.__name__!r} has no attribute {name!r}"
            )
        return getattr(self, name)

    @property
    def __dict__(self):
        _run(self)
        return _module_dict(self)


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


lattice = _register_lazy("lattice")
cones = _register_lazy("cones")
fans = _register_lazy("fans")
cox = _register_lazy("cox")
gaussian = _register_lazy("gaussian")
holmap = _register_lazy("holmap")
document = _register_lazy("document")
stability = _register_lazy("stability")
catalog = _register_lazy("catalog")


def __getattr__(name: str):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # Bind the name in the package, so later reads are plain global reads.
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
