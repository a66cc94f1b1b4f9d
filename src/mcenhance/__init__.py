"""Speech enhancement with Monte Carlo dropout uncertainty.

Lazy re-exports keep `import mcenhance` cheap so the CLI can pin BLAS
thread counts before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "FrameConfig": "dsp",
    "Signal": "dsp",
    "SpectralFrames": "dsp",
    "stft": "dsp",
    "istft_overlap_add": "dsp",
    "mix_at_snr": "dsp",
    "read_wav": "dsp",
    "write_wav": "dsp",
    "DropoutStream": "neural",
    "MaskMemo": "neural",
    "MlpModel": "neural",
    "TrainConfig": "neural",
    "forward": "neural",
    "train_regressor": "neural",
    "train_classifier": "neural",
    "save_model": "neural",
    "load_model": "neural",
    "McConfig": "mcdrop",
    "McSweep": "mcdrop",
    "mc_spectral_stats": "mcdrop",
    "tau_inverse": "mcdrop",
    "BankOutputs": "selection",
    "ModelBank": "selection",
    "PolicyKind": "selection",
    "SelectionPolicy": "selection",
    "select_frames": "selection",
    "save_bank": "selection",
    "load_bank": "selection",
    "sse": "metrics",
    "ssnr": "metrics",
    "variance_error_correlation": "metrics",
    "threshold_sweep": "metrics",
    "NoiseSpec": "corpus",
    "synth_speech": "corpus",
    "synth_noise": "corpus",
    "default_manifest": "corpus",
    "build_dataset": "corpus",
    "ExperimentConfig": "pipeline",
    "McenError": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
