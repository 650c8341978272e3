"""skelcon: contrastive pretraining and evaluation for 3D skeleton sequences.

A pure-numpy toolkit covering the full loop: skeleton augmentations
(shear / joint jitter / temporal crop-resize), three input representations
(pseudo-image, time-series, spatio-temporal graph) with matching encoder
families, momentum-contrast pretraining with InfoNCE and a dynamic negative
queue (intra- and inter-representation), and a downstream harness (linear
probe, k=1 retrieval, finetuning, embedding export).
"""

from .errors import (SkelconError, ParseError, SchemaError, ValidationError,
                     ContractError, DegenerateEmbeddingError,
                     DegenerateTaskError, ConfigError)
from .data import (SkeletonSequence, LabeledSample, Dataset, DataSplit,
                   ValidationReport, validate_sequence, save_dataset,
                   load_dataset, generate_synthetic, make_split, DatasetSpec,
                   chain_tree_bones, HUMAN25_BONES, NUM_ACTORS)
from .augment import (ShearParams, JitterParams, CropResizeParams,
                      AugmentationSpec, ViewDraw, pose_augment, joint_jitter,
                      temporal_crop_resize, draw_shear, draw_jitter, draw_crop,
                      draw_view, apply_view, make_query_key_pair)
from .represent import (REPRESENTATIONS, bone_adjacency, normalized_adjacency,
                        graph_adjacency, to_image, to_sequence, image_to_coords,
                        sequence_to_coords, batch_views)
from .encoders import (EncoderConfig, EncoderState, desk_config,
                       init_encoder, encoder_forward, encoder_backward,
                       head_forward, head_backward, embed_forward,
                       embed_backward, save_checkpoint, load_checkpoint)
from .contrast import (NegativeQueue, InfoNCEResult, info_nce, MomentumPair,
                       make_pair, momentum_update, TrainerConfig, TrainerState,
                       LossReport, Schedule, make_trainer,
                       train_step, contrast_losses, warmup_queues,
                       pretrain, save_trainer, load_trainer)
from .downstream import (Metrics, ProbeSchedule, FinetuneSchedule,
                         RetrievalIndex, SeedSummary, center_crop,
                         extract_features, linear_probe, build_index,
                         knn_retrieve, stratified_subset, finetune,
                         combined_probe, pca2d, export_embeddings,
                         summarize, DownstreamSpec)
from .config import (DEFAULTS, ExperimentConfig, SweepSpec, parse_config,
                     resolve_config, parse_override, write_resolved)

__version__ = "0.1.0"
