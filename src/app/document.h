// The generic documentation application layer (paper §4.1): documents
// are hierarchies of section nodes connected by isPartOf links;
// annotations, references and cross-document links are links with a
// `relation` attribute; the `icon` attribute names a node in browsers.
//
// Everything here is built strictly on top of HamInterface, so it
// works identically against the local engine and a remote server —
// the paper's layered architecture.

#ifndef NEPTUNE_APP_DOCUMENT_H_
#define NEPTUNE_APP_DOCUMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "ham/ham_interface.h"

namespace neptune {
namespace app {

// Attribute conventions shared by the documentation and CASE layers.
struct Conventions {
  static constexpr char kIcon[] = "icon";          // browser display name
  static constexpr char kDocument[] = "document";  // which document
  static constexpr char kRelation[] = "relation";  // link semantics
  static constexpr char kContentType[] = "contentType";

  static constexpr char kIsPartOf[] = "isPartOf";
  static constexpr char kAnnotates[] = "annotates";
  static constexpr char kReferences[] = "references";
};

// Display title of a node: its icon value, or "#<index>" without one.
std::string DisplayTitle(ham::NodeIndex node,
                         const std::optional<std::string>& icon);

// One section in a document outline.
struct OutlineEntry {
  ham::NodeIndex node = 0;
  int depth = 0;            // 0 = root
  std::string title;        // icon attribute (or "#<index>")
  std::string number;       // hierarchical section number, e.g. "2.1.3"
};

class DocumentModel {
 public:
  // `ham` must outlive the model; `ctx` is an open graph session.
  DocumentModel(ham::HamInterface* ham, ham::Context ctx)
      : ham_(ham), ctx_(ctx) {}

  // Interns the convention attributes; call once before other methods.
  Status Init();

  // Creates a document root node tagged document=`name`, icon=`title`.
  Result<ham::NodeIndex> CreateDocument(const std::string& name,
                                        const std::string& title);

  // Creates a section under `parent` at ordering `position` (the link
  // offset inside the parent — document browsers sort children by it).
  Result<ham::NodeIndex> AddSection(ham::NodeIndex parent,
                                    const std::string& document,
                                    const std::string& title,
                                    const std::string& text,
                                    uint64_t position);

  // Replaces a section's text (carrying attachment offsets forward
  // unchanged).
  Status EditSection(ham::NodeIndex node, const std::string& text,
                     const std::string& explanation);

  // The paper's `annotate` command: in ONE transaction, creates a new
  // node holding `text`, links the annotated position to it, tags node
  // and link as an annotation, and returns the new node.
  Result<ham::NodeIndex> Annotate(ham::NodeIndex target, uint64_t position,
                                  const std::string& text);

  // A cross-reference link (relation=references) between two nodes.
  Result<ham::LinkIndex> AddReference(ham::NodeIndex from, uint64_t position,
                                      ham::NodeIndex to);

  // The document outline at `time` (0 = now): depth-first over
  // isPartOf links ordered by offsets, with section numbers.
  Result<std::vector<OutlineEntry>> Outline(ham::NodeIndex root,
                                            ham::Time time);

  // "The HAM's linearizeGraph operation can be used to extract a
  // document from the hypertext graph so that hardcopies can be
  // produced": renders the document to markdown-like text.
  Result<std::string> ExtractHardcopy(ham::NodeIndex root, ham::Time time);

  // Annotation nodes attached to `node` at `time`.
  Result<std::vector<ham::NodeIndex>> AnnotationsOf(ham::NodeIndex node,
                                                    ham::Time time);

  // Display title for a node (icon attribute, or "#<index>").
  std::string TitleOf(ham::NodeIndex node, ham::Time time);

  ham::AttributeIndex icon_attr() const { return icon_; }
  ham::AttributeIndex document_attr() const { return document_; }
  ham::AttributeIndex relation_attr() const { return relation_; }

  ham::HamInterface* ham() { return ham_; }
  ham::Context ctx() const { return ctx_; }

 private:
  ham::HamInterface* ham_;
  ham::Context ctx_;
  ham::AttributeIndex icon_ = 0;
  ham::AttributeIndex document_ = 0;
  ham::AttributeIndex relation_ = 0;
};

}  // namespace app
}  // namespace neptune

#endif  // NEPTUNE_APP_DOCUMENT_H_
