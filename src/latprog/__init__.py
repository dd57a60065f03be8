"""Linear latent-space modeling of aging trajectories on phantom cohorts.

Submodules are imported lazily so the CLI can pin BLAS thread counts
before numpy loads.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "autoencoder",
    "cli",
    "config",
    "diffusion",
    "errors",
    "evaluation",
    "gaussian_prior",
    "manifest",
    "optim",
    "phantom",
    "pipeline",
    "progression",
    "ssim",
    "stages",
    "tensorfile",
)


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
