"""Desk-scale zero-shot cross-domain text steganalysis laboratory.

The pipeline: generate cover/stego corpora per domain over a Markov language
model (fixed-length or Huffman variable-length bit coding), encode tokens
with a frozen-after-pretraining feature encoder, classify with a Bi-LSTM +
sigmoid feature gate head, pretrain on a labeled source domain, and adapt to
an unlabeled target domain by progressive pseudo-label self-training.
"""

from .adapt import (
    PseudoLabel,
    PseudoPool,
    TrainConfig,
    estimate_pseudo_labels,
    evaluate_model,
    finetune,
    pretrain,
    schedule_sizes,
    select_balanced,
    select_candidates,
)
from .config import DataConfig, EvalConfig, ExperimentConfig, config_from_dict, load_config
from .corpus import (
    BOS,
    COVER,
    EOS,
    PAD,
    STEGO,
    UNK,
    UNLABELED,
    DomainDataset,
    TextSample,
    Vocab,
    build_vocab,
    load_corpus,
    make_splits,
    save_corpus,
    strip_labels,
    tokenize,
)
from .encoder import BuiltinEncoder, EncoderConfig, PrecomputedEncoder, load_precomputed
from .errors import (
    CapacityError,
    CheckpointError,
    CorpusError,
    DesyncError,
    FeatureLookupError,
    IntegrityError,
    NumericError,
    StegadaptError,
)
from .experiment import (
    TaskSpec,
    export_projection,
    prepare_data,
    run_ablation,
    run_matrix,
    run_task,
)
from .head import (
    AdamState,
    HeadConfig,
    HeadParams,
    adam_step,
    backward_batch,
    batch_loss_ce,
    forward_batch,
    init_params,
)
from .metrics import Metrics, compute_metrics
from .model import Classifier, load_checkpoint, predicted_labels, save_checkpoint
from .stegogen import (
    MarkovLM,
    StegoResult,
    build_domain_dataset,
    embed_flc,
    embed_vlc,
    extract_bits,
    fit_lm,
    huffman_codebook,
    sample_cover,
    tokenize_corpus,
)

__version__ = "0.1.0"
