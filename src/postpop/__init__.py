"""Multimodal post-popularity regression with hashtag-guided attention."""

from .data import (Dataset, FaceAnnotation, Post, PostMetadata, CorpusError,
                   load_dataset, save_dataset, split_dataset)
from .features import (PCAModel, SentimentLexicon, SocialStats, apply_pca,
                       demographic_vector, fit_pca, sentiment_feature,
                       sentiment_scores, social_vector)
from .hashtag_graph import (HashtagGraph, NodeEmbeddings, build_cooccurrence_graph,
                            hashtag_feature, node_embeddings)
from .model import (FeatureBundle, FeatureCaches, ModelConfig, PAPER_HEAD_SIZES,
                    branch_forward,
                    build_caches, extract_features, forward_bundle, head_forward,
                    init_model_params, load_checkpoint, loss_mse, merged_length,
                    save_checkpoint)
from .numeric import (ShapeError, conv1d_forward, dense_forward, dropout,
                      finite_difference_grad, relu, softmax)
from .providers import EmbeddingProvider, tokenize
from .training import (AblationReport, Checkpoint, Metrics, TrainConfig,
                       TrainResult, TrainingDivergedError, ablate, adam_step,
                       compute_metrics, correlate_features, evaluate, pearson,
                       spearman, train)

__version__ = "0.1.0"
