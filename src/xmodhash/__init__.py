"""Cross-modal hashing toolkit: train compact binary codes over two feature
modalities, learn per-modality out-of-sample hash encoders, and evaluate
Hamming-ranked retrieval."""

from .dataio import (FeatureMatrix, ModelArchive, RawLabelMatrix, generate_synthetic,
                     load_model, read_labels, read_matrix, save_model, write_matrix)
from .encoder import (HashEncoder, encode, fit_pipeline, fit_ridge_encoder, from_archive,
                      to_archive)
from .errors import (DegenerateDataError, EvaluationError, FormatError,
                     NumericalError, ValidationError)
from .kernelfeat import KernelMap, estimate_width, fit_kernel, kernelize, select_anchors
from .labelspace import LabelSet, normalize_labels
from .retrieval import CodeSet, evaluate, rank_by_hamming, read_codes, write_codes
from .trainer import (ModelState, TrainConfig, TrainReport, init_state, objective_value,
                      train, update_codes, update_label_projection, update_rotation)

__version__ = "0.1.0"
